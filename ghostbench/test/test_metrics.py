"""Unit test of the benchmark's own arithmetic and answer check.

    python3 -m unittest discover -s ghostbench/test
"""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import metrics  # noqa: E402
import run  # noqa: E402


def record(code=0, wall_ms=1.0, sim_ms=10.0, k=0, **extra):
    r = {"pass": "main", "r": 0, "c": 0, "k": k, "q": k, "code": code,
         "fx": 0,
         "w": 1, "wall": int(wall_ms * 1e6)}
    if code == 0:
        r.update({"sim": int(sim_ms * 1e6), "hit": 0, "miss": 1, "rp": 0})
    r.update(extra)
    return r


META = {
    "seed": 1, "statements": 4, "clients": 1, "distinct_statements": 4,
    "host_threads": 4, "setups": [[0.5, 1.0], [0.25, 1.0], [0.5, 2.0]],
    "pass_wall_s": {"main": 3.0}, "window_wall_s": {"main": [2.0]},
    "live_pages": 10, "page_size": 2048,
    "user_bytes": 10240, "peak_rss_kb": 2048, "inconsistent_answers": 0,
}


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(metrics.percentile(values, 0.99, 10),
                         (990, 0.99, 10))

    def test_falls_back_to_highest_supported_percentile(self):
        value, used, beyond = metrics.percentile(list(range(1, 101)), 0.99,
                                                 10)
        self.assertEqual((value, beyond), (90, 10))
        self.assertAlmostEqual(used, 0.90)

    def test_too_few_samples_for_any_tail(self):
        self.assertEqual(metrics.percentile([3, 1, 2], 0.99, 10),
                         (3, 1.0, 0))

    def test_end_to_end_p99_keeps_ten_samples_beyond(self):
        records = [record(k=i, wall_ms=i + 1) for i in range(500)]
        m, facts = metrics.end_to_end(META, records)
        self.assertEqual(m["stmt_p99_ms"][0], 490.0)
        self.assertEqual(facts["p99_samples_beyond"], 10)

    def test_median_is_nearest_rank(self):
        self.assertEqual(metrics.percentile(list(range(1, 41)), 0.5)[0], 20)


class Ratios(unittest.TestCase):
    def setUp(self):
        self.records = [record(k=0, wall_ms=1, sim_ms=10),
                        record(k=1, wall_ms=3, sim_ms=30),
                        record(k=2, code=5, wall_ms=100),
                        record(k=3, code=5, wall_ms=200)]

    def test_window_bounds_the_sample_not_the_failure_count(self):
        records = self.records + [record(k=4, wall_ms=50, sim_ms=500, w=0),
                                  record(k=5, code=5, w=0)]
        m, facts = metrics.end_to_end(META, records)
        self.assertEqual(m["sim_ms_per_stmt"][0], 20.0)
        self.assertEqual(m["stmt_p50_ms"][0], 1.0)
        self.assertEqual(m["failed_frac"][0], 0.5)
        self.assertEqual((facts["attempted"], facts["failed"]), (6, 3))
        self.assertEqual(facts["samples"], 2)

    def test_failed_frac_counts_failures_in_the_base(self):
        self.assertEqual(metrics.failed_frac(self.records), 0.5)

    def test_means_and_latencies_cover_successful_statements_only(self):
        m, facts = metrics.end_to_end(META, self.records)
        self.assertEqual(m["sim_ms_per_stmt"][0], 20.0)
        self.assertEqual(m["stmt_p50_ms"][0], 1.0)
        self.assertEqual(m["throughput_sps"][0], 1.0)  # 2 ok in 2 s
        self.assertEqual(m["failed_frac"][0], 0.5)
        self.assertEqual((facts["attempted"], facts["failed"]), (4, 2))
        self.assertEqual(facts["samples"], 2)

    def test_setup_is_the_median_set_up(self):
        m, _ = metrics.end_to_end(META, self.records)
        self.assertEqual(m["setup_s"][0], 1.5)
        self.assertEqual(m["flash_bytes_per_user_byte"][0], 2.0)


class TimedRounds(unittest.TestCase):
    """Round 0 runs the stream; later rounds time the window again."""

    def setUp(self):
        self.meta = dict(META, window_wall_s={"main": [2.0, 1.0, 4.0]})
        self.records = [
            record(k=0, wall_ms=4), record(k=1, wall_ms=1),
            record(k=2, code=5, w=0), record(k=3, wall_ms=9, w=0),
            record(k=0, wall_ms=2, r=1), record(k=1, wall_ms=8, r=1),
            record(k=0, wall_ms=3, r=2), record(k=1, code=5, r=2)]

    def test_latency_is_the_least_over_rounds(self):
        self.assertEqual(
            sorted(metrics.best_of_rounds(self.records[:-1])), [1e6, 2e6])

    def test_a_failed_repeat_drops_the_statement_from_the_sample(self):
        self.assertEqual(metrics.best_of_rounds(self.records), [2e6])

    def test_throughput_is_the_fastest_round(self):
        m, facts = metrics.end_to_end(self.meta, self.records)
        self.assertEqual(m["throughput_sps"][0], 2.0)  # 2 ok in round 1's 1 s
        self.assertEqual(facts["rounds"], 3)

    def test_failed_frac_is_over_the_stream(self):
        m, facts = metrics.end_to_end(self.meta, self.records)
        self.assertEqual(m["failed_frac"][0], 0.25)  # 1 of round 0's 4
        self.assertEqual((facts["attempted"], facts["failed"]), (8, 2))


class SelfTime(unittest.TestCase):
    def span(self, i, b, e, p=-1, name="x"):
        return {"pass": "traced", "s": 0, "i": i, "n": name, "b": b, "e": e,
                "p": p}

    def test_children_are_subtracted_once(self):
        spans = [self.span(0, 0, 100),
                 self.span(1, 10, 30, 0), self.span(2, 20, 40, 0),
                 self.span(3, 90, 120, 0),  # overhangs its parent
                 self.span(4, 12, 14, 1)]   # grandchild: not the root's
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs[0], 100 - 30 - 10)
        self.assertEqual(selfs[1], 20 - 2)
        self.assertEqual(selfs[2], 20)

    def test_host_estimate_subtracts_plan_only_when_planned(self):
        spans = {"core.query": 10e6, "sql.parse": 1e6, "sql.shape": 1e6,
                 "sql.bind": 1e6, "untrusted.prefetch": 2e6,
                 "plan.plan": 3e6}
        self.assertEqual(metrics.host_ms_est({"miss": 1, "rp": 0}, spans), 2)
        self.assertEqual(metrics.host_ms_est({"miss": 0, "rp": 0}, spans), 5)


class AnswerCheck(unittest.TestCase):
    """A wrong expected answer must make the command fail."""

    def run_dir(self, tmp, expected_rows, expected_total=2):
        os.makedirs(os.path.join(tmp, "run"))
        d = os.path.join(tmp, "run")
        with open(os.path.join(d, "meta.json"), "w") as f:
            json.dump(META, f)
        with open(os.path.join(d, "records.jsonl"), "w") as f:
            f.write(json.dumps(record(k=0)) + "\n")
        open(os.path.join(d, "spans.jsonl"), "w").close()
        rows = [["1", "a"], ["2", "b"]]
        with open(os.path.join(d, "answers.jsonl"), "w") as f:
            f.write(json.dumps({"q": 0, "total": 2, "rows": rows}) + "\n")
        expected = os.path.join(d, "expected.jsonl")
        with open(expected, "w") as f:
            f.write(json.dumps({"q": 0, "total": expected_total,
                                "rows": expected_rows}) + "\n")
        return d, expected

    def evaluate(self, expected_rows, expected_total=2):
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                d, expected = self.run_dir(tmp, expected_rows, expected_total)
                out = io.StringIO()
                status = run.evaluate(d, expected, "paper_q", 0, out=out)
            finally:
                os.chdir(cwd)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        return status, result

    def test_matching_answers_pass(self):
        status, result = self.evaluate([["1", "a"], ["2", "b"]])
        self.assertEqual(status, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in run.load_spec()["end_to_end"]})

    def test_corrupted_cell_fails_the_command(self):
        status, result = self.evaluate([["1", "a"], ["2", "X"]])
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])

    def test_corrupted_row_count_fails_the_command(self):
        status, result = self.evaluate([["1", "a"], ["2", "b"]], 3)
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
