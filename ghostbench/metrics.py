"""Arithmetic of the GhostDB benchmark: the raw observations ghostbench
writes (meta.json, records.jsonl, spans.jsonl) become the end-to-end and
per-layer metrics here, and the engine's answers are compared with the
oracle's. Pure functions over plain data, so test/test_metrics.py can check
each rule on hand-made inputs."""

import json
import math
import os
import statistics

# Simulated-clock categories reported as exec.sim_<cat>_ms.
SIM_CATEGORIES = ["merge", "bloom", "sjoin", "project", "store", "comm",
                  "sort-spill", "padding"]

# Storage-report tag prefixes reported as load.<name>_pages.
TAG_PREFIXES = {"index": "ci:", "hidden": "hidden:", "skt": "skt:"}

MIN_BEYOND = 10  # samples the reported tail percentile must have above it


# ---- rules ------------------------------------------------------------------

def percentile(values, p, min_beyond=0):
    """Nearest-rank percentile of `values` at fraction p, capped at the
    highest rank that still leaves `min_beyond` samples above it.

    Returns (value, fraction actually used, samples beyond). The fraction is
    below p when there are too few samples for p itself; with `min_beyond`
    or fewer samples there is no supported percentile and the maximum is
    returned with 0 samples beyond."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, p, 0
    rank = max(1, math.ceil(p * n))
    if n - rank < min_beyond:
        rank = n - min_beyond if n > min_beyond else n
    return xs[rank - 1], rank / n, n - rank


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def failed_frac(records):
    """Failed statements over all statements attempted (failures included
    in the base)."""
    if not records:
        return 0.0
    return sum(1 for r in records if r["code"] != 0) / len(records)


def successful(records):
    return [r for r in records if r["code"] == 0]


def measured(records):
    """Successful statements inside their episode's measured window: the
    sample of every latency, throughput and per-statement figure."""
    return [r for r in records if r["code"] == 0 and r["w"]]


def stream_round(records):
    """Round 0 of a pass: every statement of the stream, run once. Later
    rounds only time the measured windows again."""
    return [r for r in records if r["r"] == 0]


def best_of_rounds(records):
    """Latency sample of a pass timed in rounds: each measured statement's
    least wall time (ns) over the rounds, for the statements that succeeded
    in every round."""
    walls, failed = {}, set()
    for r in records:
        if not r["w"]:
            continue
        key = (r["c"], r["k"])
        if r["code"] != 0:
            failed.add(key)
        else:
            walls.setdefault(key, []).append(r["wall"])
    return [min(v) for key, v in walls.items() if key not in failed]


def best_round_throughput(records, window_walls):
    """Successful measured statements per second of window wall time, in
    the fastest of the timed rounds."""
    return max(len([r for r in measured(records) if r["r"] == i]) / wall
               for i, wall in enumerate(window_walls))


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once).
    `spans` is a list of dicts with i (index), b, e (ns) and p (parent
    index, -1 for roots) from one client; returns {i: self_ns}."""
    children = {}
    for s in spans:
        if s["p"] >= 0:
            children.setdefault(s["p"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        end = s["b"]
        for c in sorted(children.get(s["i"], []), key=lambda c: c["b"]):
            b, e = max(c["b"], end, s["b"]), min(c["e"], s["e"])
            if e > b:
                covered += e - b
                end = e
        out[s["i"]] = (s["e"] - s["b"]) - covered
    return out


def compare_answers(answers, expected, row_limit):
    """Mismatches between the engine's answers and the oracle's, keyed by
    pool statement: the total row count and the materialized prefix (the
    first min(row_limit, total) rows) must both agree."""
    problems = []
    for q, got in answers.items():
        want = expected.get(q)
        if want is None:
            problems.append((q, "no oracle answer"))
        elif "error" in want:
            problems.append((q, "oracle failed: " + want["error"]))
        elif got["total"] != want["total"]:
            problems.append((q, "total_rows %d, oracle %d"
                             % (got["total"], want["total"])))
        elif len(got["rows"]) != min(row_limit, want["total"]):
            problems.append((q, "%d rows materialized of %d"
                             % (len(got["rows"]), want["total"])))
        elif got["rows"] != want["rows"][:len(got["rows"])]:
            first = next(i for i, (a, b) in
                         enumerate(zip(got["rows"], want["rows"])) if a != b)
            problems.append((q, "row %d differs: %s vs oracle %s"
                             % (first, got["rows"][first],
                                want["rows"][first])))
    return problems


# ---- loading ----------------------------------------------------------------

def load_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def load_answers(path):
    return {a["q"]: a for a in load_jsonl(path)}


def load_run(run_dir):
    with open(os.path.join(run_dir, "meta.json")) as f:
        meta = json.load(f)
    records = load_jsonl(os.path.join(run_dir, "records.jsonl"))
    spans = load_jsonl(os.path.join(run_dir, "spans.jsonl"))
    return meta, records, spans


def by_pass(items, name):
    return [x for x in items if x["pass"] == name]


# ---- metrics ----------------------------------------------------------------

def end_to_end(meta, records):
    """The end-to-end metrics of the untraced "main" pass, plus the facts
    printed beside them (sample counts, percentile actually reported).
    Latencies are best of the timed rounds; failures count over the
    stream (round 0); simulated cost averages every measured success."""
    main = by_pass(records, "main")
    walls_ms = [ns / 1e6 for ns in best_of_rounds(main)]
    p50, _, _ = percentile(walls_ms, 0.50)
    p99, p99_used, beyond = percentile(walls_ms, 0.99, MIN_BEYOND)
    setups = [stage + build for stage, build in meta["setups"]]
    window_walls = meta["window_wall_s"]["main"]
    metrics = {
        "setup_s": (median(setups), "s"),
        "stmt_p50_ms": (p50, "ms"),
        "stmt_p99_ms": (p99, "ms"),
        "throughput_sps": (best_round_throughput(main, window_walls), "1/s"),
        "failed_frac": (failed_frac(stream_round(main)), "ratio"),
        "sim_ms_per_stmt": (mean(r["sim"] for r in measured(main)) / 1e6,
                            "ms"),
        "flash_bytes_per_user_byte": (
            meta["live_pages"] * meta["page_size"] / meta["user_bytes"],
            "B/B"),
        "peak_rss_mb": (meta["peak_rss_kb"] / 1024.0, "MB"),
    }
    facts = {
        "attempted": len(main),
        "failed": len(main) - len(successful(main)),
        "samples": len(walls_ms),
        "rounds": len(window_walls),
        "p99_fraction_used": p99_used,
        "p99_samples_beyond": beyond,
        "setups": len(setups),
        "failures_by_code": count_codes(main),
    }
    return metrics, facts


def count_codes(records):
    codes = {}
    for r in records:
        if r["code"] != 0:
            codes[r["code"]] = codes.get(r["code"], 0) + 1
    return codes


def span_table(spans, pass_name, only=None):
    """{stmt: {name: duration_ns}} for one pass (names are unique within a
    statement), and per-layer self time in ns summed per statement; `only`
    restricts both to a set of statement ids."""
    per_stmt = {}
    layer_self = {}
    clients = {}
    for s in by_pass(spans, pass_name):
        clients.setdefault(s["s"] >> 32, []).append(s)
    for client_spans in clients.values():
        selfs = self_times(client_spans)
        for s in client_spans:
            if only is not None and s["s"] not in only:
                continue
            per_stmt.setdefault(s["s"], {})[s["n"]] = s["e"] - s["b"]
            layer = s["n"].split(".")[0]
            layer_self.setdefault(s["s"], {}).setdefault(layer, 0)
            layer_self[s["s"]][layer] += selfs[s["i"]]
    return per_stmt, layer_self


def stmt_id(record):
    return (record["c"] << 32) | record["k"]


def host_ms_est(record, spans_of_stmt):
    """Query wall time minus the same statement's sql and untrusted spans
    and, when the engine had to plan (miss or replan), its plan span."""
    d = spans_of_stmt
    ns = d.get("core.query", 0)
    for name in ("sql.parse", "sql.shape", "sql.bind", "untrusted.prefetch"):
        ns -= d.get(name, 0)
    if record.get("miss", 0) or record.get("rp", 0):
        ns -= d.get("plan.plan", 0)
    return ns / 1e6


def host_estimates(records, spans, pass_name):
    per_stmt, _ = span_table(spans, pass_name)
    return [host_ms_est(r, per_stmt.get(stmt_id(r), {}))
            for r in measured(by_pass(records, pass_name))]


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(meta, records, spans):
    """Per-layer metrics of the traced run. Metrics that do not apply to the
    workload read 0 (see README.md for which apply where)."""
    traced = by_pass(records, "traced")
    ok = measured(traced)
    per_stmt, layer_self = span_table(spans, "traced",
                                      {stmt_id(r) for r in ok})

    def span_p50_us(name):
        return median([d[name] / 1e3 for d in per_stmt.values() if name in d])

    def per_stmt_mean(key, scale=1.0):
        return mean(r.get(key, 0) for r in ok) / scale

    m = {}
    m["sql.parse_us"] = (span_p50_us("sql.parse"), "us")
    m["sql.shape_us"] = (span_p50_us("sql.shape"), "us")
    m["sql.bind_us"] = (span_p50_us("sql.bind"), "us")
    m["plan.plan_us"] = (span_p50_us("plan.plan"), "us")
    hits = sum(r["hit"] for r in ok)
    lookups = sum(r["hit"] + r["miss"] + r["rp"] for r in ok)
    m["plan_cache.hit_ratio"] = (ratio(hits, lookups), "ratio")
    m["plan_cache.evictions"] = (meta["plan_cache_evictions"], "count")
    m["untrusted.prefetch_us"] = (span_p50_us("untrusted.prefetch"), "us")
    m["untrusted.vis_ids_per_stmt"] = (per_stmt_mean("vids"), "count")
    m["untrusted.payload_kb_per_stmt"] = (per_stmt_mean("pay", 1024), "KB")
    host = host_estimates(records, spans, "traced")
    m["exec.host_ms_est"] = (median(host), "ms")
    for cat in SIM_CATEGORIES:
        m["exec.sim_%s_ms" % cat] = (
            mean(r["cat"].get(cat, 0) for r in ok) / 1e6, "ms")
    m["exec.qepsj_useful_ratio"] = (
        ratio(sum(r["rr"] for r in ok if r["qj"]),
              sum(r["qj"] for r in ok)), "ratio")
    m["exec.padding_rows_per_result_row"] = (
        ratio(sum(r["pad"] for r in ok), sum(r["rr"] for r in ok)), "ratio")
    m["exec.topk_short_circuits_per_stmt"] = (per_stmt_mean("tk"), "count")
    # Only tight_padded's traced run has the serial-pool pass.
    m["pool.speedup_vs_w1"] = (
        ratio(median(host_estimates(records, spans, "traced_w1")),
              median(host)), "x")
    m["channel.kb_to_secure_per_stmt"] = (per_stmt_mean("b2s", 1024), "KB")
    m["channel.kb_to_untrusted_per_stmt"] = (per_stmt_mean("b2u", 1024), "KB")
    m["arbiter.wait_ms_est"] = (arbiter_wait_ms(records, spans), "ms")
    m["ram.peak_buffers"] = (max((r["ram"] for r in ok), default=0), "count")
    m["flash.pages_read_per_stmt"] = (per_stmt_mean("pr"), "count")
    m["flash.pages_written_per_stmt"] = (per_stmt_mean("pw"), "count")
    m["storage.spill_runs_per_stmt"] = (per_stmt_mean("sr"), "count")
    m["storage.spill_pages_per_stmt"] = (per_stmt_mean("sp"), "count")
    main = stream_round(by_pass(records, "main"))
    m["storage.flash_exhausted_failures"] = (
        sum(r["fx"] for r in main), "count")
    m["storage.high_water_pages"] = (meta["high_water_pages"], "count")
    page_us = meta["crypto_page_ns"] / 1e3
    m["crypto.page_us"] = (page_us, "us")
    m["crypto.est_ms_per_stmt"] = (
        page_us * (per_stmt_mean("pr") + per_stmt_mean("pw")) / 1e3, "ms")
    setups = meta["setups"] + meta["trace_setups"]
    m["load.stage_s"] = (median([s for s, _ in setups]), "s")
    m["load.build_s"] = (median([b for _, b in setups]), "s")
    for name, prefix in TAG_PREFIXES.items():
        m["load.%s_pages" % name] = (
            sum(v for t, v in meta["tags"].items() if t.startswith(prefix)),
            "count")
    # paper_q's extra traced pass on the fleet.
    legs = [r["legs"] for r in measured(by_pass(records, "fleet"))
            if r.get("legs") and mean(r["legs"]) > 0]
    m["fleet.leg_imbalance"] = (
        median([max(v) / mean(v) for v in legs]), "x")
    m["failed_frac"] = (failed_frac(main), "ratio")
    untraced_p50, _, _ = percentile(
        [r["wall"] / 1e6 for r in measured(main)], 0.5)
    traced_p50, _, _ = percentile([r["wall"] / 1e6 for r in ok], 0.5)
    m["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
    layers = sorted({layer for d in layer_self.values() for layer in d})
    self_us = {layer: median([d.get(layer, 0) / 1e3
                              for d in layer_self.values()])
               for layer in layers}
    return m, self_us


def arbiter_wait_ms(records, spans):
    """Median over the traced concurrent statements of their query time
    minus the same statement's query time in the solo replay (0 when the
    run has no solo replay)."""
    solo = by_pass(records, "solo")
    if not solo:
        return 0.0
    solo_spans, _ = span_table(spans, "solo")
    solo_ms = {r["q"]: solo_spans[stmt_id(r)]["core.query"] / 1e6
               for r in measured(solo)}
    traced_spans, _ = span_table(spans, "traced")
    waits = [traced_spans[stmt_id(r)]["core.query"] / 1e6 - solo_ms[r["q"]]
             for r in measured(by_pass(records, "traced"))
             if r["q"] in solo_ms]
    return median(waits)
