#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <latch>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "crypto/chacha20.h"
#include "json_out.h"
#include "plan/planner.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace ghostbench {

using ghostdb::Result;
using ghostdb::Status;
namespace core = ghostdb::core;
namespace exec = ghostdb::exec;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// One span of the traced run. Spans are opened only around calls from this
// file into a layer's public functions; `parent` indexes the same client's
// span vector (-1 for a statement's root span).
struct Span {
  uint64_t stmt = 0;
  const char* name = "";
  int64_t begin = 0;
  int64_t end = 0;
  int parent = -1;
};

// Everything one closed-loop client observes during a pass. Clients never
// share a log, so recording needs no locks.
struct ClientLog {
  std::string records;
  std::vector<Span> spans;
  std::map<uint32_t, Answer> answers;  ///< first answer per pool statement
  uint64_t inconsistent = 0;  ///< later answers that differed from the first

  int Open(uint64_t stmt, const char* name, int parent) {
    spans.push_back({stmt, name, NowNs(), 0, parent});
    return static_cast<int>(spans.size()) - 1;
  }
  void Close(int span) { spans[static_cast<size_t>(span)].end = NowNs(); }

  void Keep(uint32_t q, Answer answer) {
    auto it = answers.find(q);
    if (it == answers.end()) {
      answers.emplace(q, std::move(answer));
    } else if (!(it->second == answer)) {
      ++inconsistent;
    }
  }
};

// The engine under test plus the benchmark's own planner instance, used
// only to time Planner::PlanQuery in the traced run.
struct Engine {
  core::GhostDBConfig cfg;
  std::unique_ptr<core::GhostDB> db;
  std::unique_ptr<ghostdb::plan::Planner> planner;
  uint64_t user_bytes = 0;
  double stage_s = 0;
  double build_s = 0;
};

Result<std::unique_ptr<Engine>> SetUp(Kind kind, uint64_t seed,
                                      uint32_t worker_threads,
                                      uint32_t shard_count) {
  auto e = std::make_unique<Engine>();
  e->cfg = DbConfig(kind, worker_threads, shard_count,
                    /*retain_staged_data=*/false);
  int64_t t0 = NowNs();
  e->db = std::make_unique<core::GhostDB>(e->cfg);
  GHOSTDB_RETURN_NOT_OK(StageData(e->db.get(), kind, seed));
  int64_t t1 = NowNs();
  for (const core::TableData& t : e->db->staged()) {
    e->user_bytes += t.row_count() * t.row_width();
  }
  GHOSTDB_RETURN_NOT_OK(e->db->Build());
  int64_t t2 = NowNs();
  e->stage_s = Seconds(t1 - t0);
  e->build_s = Seconds(t2 - t1);
  ghostdb::plan::PlannerConfig pcfg;
  pcfg.shard_count = e->db->shard_count();
  e->planner = std::make_unique<ghostdb::plan::Planner>(
      &e->db->schema(), &e->db->store(), pcfg);
  if (e->cfg.exec.worker_threads == 0) {
    e->cfg.exec.worker_threads = e->cfg.worker_threads;
  }
  return e;
}

void AppendMetrics(std::string* out, const exec::QueryMetrics& m) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      ", \"sim\": %lld, \"pr\": %llu, \"pw\": %llu, \"b2s\": %llu, "
      "\"b2u\": %llu, \"qj\": %llu, \"rr\": %llu, \"ram\": %u, \"hit\": %llu, "
      "\"miss\": %llu, \"rp\": %llu, \"sr\": %llu, \"sp\": %llu, \"tk\": %llu, "
      "\"pad\": %llu, \"cat\": {",
      static_cast<long long>(m.total_ns),
      static_cast<unsigned long long>(m.flash.pages_read),
      static_cast<unsigned long long>(m.flash.pages_written),
      static_cast<unsigned long long>(m.bytes_to_secure),
      static_cast<unsigned long long>(m.bytes_to_untrusted),
      static_cast<unsigned long long>(m.qepsj_rows),
      static_cast<unsigned long long>(m.result_rows), m.peak_ram_buffers,
      static_cast<unsigned long long>(m.plan_cache_hits),
      static_cast<unsigned long long>(m.plan_cache_misses),
      static_cast<unsigned long long>(m.plan_cache_replans),
      static_cast<unsigned long long>(m.sort_spill_runs),
      static_cast<unsigned long long>(m.sort_spill_pages),
      static_cast<unsigned long long>(m.topk_short_circuits),
      static_cast<unsigned long long>(m.padding_rows));
  *out += buf;
  bool first = true;
  for (const auto& [name, ns] : m.categories) {
    if (!first) *out += ", ";
    first = false;
    AppendJsonString(out, name);
    *out += ": " + std::to_string(ns);
  }
  *out += "}";
}

struct Client {
  Engine* engine;
  core::Session* session;  ///< null: GhostDB::Query
  bool traced;
  uint32_t id;
  ClientLog& log;
  int64_t window_end = 0;  ///< when this client finished its window

  Result<exec::QueryResult> Query(const std::string& sql) {
    return session != nullptr ? session->Query(sql) : engine->db->Query(sql);
  }

  // The traced form of one statement: a root span, child spans around the
  // public entry points of sql, untrusted and plan (called here a second
  // time, on the statement the engine is about to run), and the query
  // itself. `extra` receives the layer counts those calls return.
  Result<exec::QueryResult> Traced(uint64_t stmt, const std::string& sql,
                                   std::string* extra) {
    core::GhostDB& db = *engine->db;
    int root = log.Open(stmt, "stmt", -1);
    int span = log.Open(stmt, "sql.parse", root);
    auto parsed = ghostdb::sql::Parse(sql);
    log.Close(span);
    span = log.Open(stmt, "sql.shape", root);
    auto shape = ghostdb::sql::QueryShape(sql);
    log.Close(span);
    uint64_t vis_ids = 0, payload = 0;
    if (parsed.ok() && shape.ok() &&
        std::holds_alternative<ghostdb::sql::SelectStmt>(*parsed)) {
      span = log.Open(stmt, "sql.bind", root);
      auto bound = ghostdb::sql::Bind(
          std::get<ghostdb::sql::SelectStmt>(*parsed), db.schema(), sql);
      log.Close(span);
      if (bound.ok()) {
        std::map<ghostdb::catalog::TableId, uint64_t> vis_counts;
        span = log.Open(stmt, "untrusted.prefetch", root);
        for (uint32_t s = 0; s < db.shard_count(); ++s) {
          auto prefetch = db.shard_untrusted(s).PrefetchVisible(*bound);
          if (!prefetch.ok()) continue;
          for (const auto& [table, ids] : prefetch->ids) {
            vis_ids += ids.size();
            if (s == 0) vis_counts[table] = ids.size();
          }
          for (const auto& [table, projection] : prefetch->projections) {
            payload += projection.second.bytes.size();
          }
        }
        log.Close(span);
        span = log.Open(stmt, "plan.plan", root);
        auto plan =
            engine->planner->PlanQuery(*bound, vis_counts, engine->cfg.exec);
        log.Close(span);
      }
    }
    std::vector<ghostdb::SimNanos> clock0(db.shard_count());
    for (uint32_t s = 0; s < db.shard_count(); ++s) {
      clock0[s] = db.shard_device(s).clock().now();
    }
    span = log.Open(stmt, "core.query", root);
    Result<exec::QueryResult> r = Query(sql);
    log.Close(span);
    log.Close(root);
    *extra += ", \"vids\": " + std::to_string(vis_ids) +
              ", \"pay\": " + std::to_string(payload);
    if (db.shard_count() > 1) {
      *extra += ", \"legs\": [";
      for (uint32_t s = 0; s < db.shard_count(); ++s) {
        if (s > 0) *extra += ", ";
        *extra += std::to_string(db.shard_device(s).clock().now() - clock0[s]);
      }
      *extra += "]";
    }
    return r;
  }

  // Runs statements [first, end) of this client's stream in timed round
  // `round`; the first `window` of them are the episode's measured window.
  void Run(const Statements& st, const std::vector<uint32_t>& stream,
           size_t first, size_t end, size_t window, const char* pass,
           size_t round) {
    for (size_t k = first; k < end && k < stream.size(); ++k) {
      uint32_t q = stream[k];
      const std::string& sql = st.pool[q];
      uint64_t stmt = (static_cast<uint64_t>(id) << 32) | k;
      std::string extra;
      int64_t t0 = NowNs();
      Result<exec::QueryResult> r =
          traced ? Traced(stmt, sql, &extra) : Query(sql);
      int64_t t1 = NowNs();
      int code = static_cast<int>(r.status().code());
      bool exhausted =
          !r.ok() && r.status().ToString().find("flash space exhausted") !=
                         std::string::npos;
      log.records += "{\"pass\": \"" + std::string(pass) +
                     "\", \"r\": " + std::to_string(round) +
                     ", \"c\": " + std::to_string(id) +
                     ", \"k\": " + std::to_string(k) +
                     ", \"w\": " + (k - first < window ? "1" : "0") +
                     ", \"q\": " + std::to_string(q) +
                     ", \"code\": " + std::to_string(code) +
                     ", \"fx\": " + (exhausted ? "1" : "0") +
                     ", \"wall\": " + std::to_string(t1 - t0);
      if (r.ok()) {
        AppendMetrics(&log.records, r->metrics);
        log.Keep(q, MakeAnswer(r->total_rows, r->rows, kResultRowLimit));
      }
      log.records += extra + "}\n";
      if (k - first < window) window_end = NowNs();
    }
  }
};

// Observations of one pass over the whole statement stream. Client logs
// persist across episodes, so span indexes stay unique per client.
struct Pass {
  Pass(std::string pass_name, bool is_traced)
      : name(std::move(pass_name)), traced(is_traced) {}

  std::string name;
  bool traced;
  std::vector<ClientLog> logs;
  double wall_s = 0;  ///< statement time over all episodes (no set-up)
  /// Per timed round, the same up to the end of each episode's window.
  std::vector<double> window_wall_s;
  std::vector<std::pair<double, double>> setups;  ///< (stage, build) s
  uint64_t high_water = 0;  ///< allocator high water, max over episodes
  uint64_t evictions = 0;   ///< plan-cache evictions, summed
};

// One episode of timed round `round`: every client runs statements
// [first, first + count) of its stream on `engine` (later rounds only the
// measured window), each on its own thread (the calling thread when there
// is one client), closed loop.
Status RunEpisode(Engine* engine, const Statements& st, const Spec& spec,
                  size_t first, size_t count, size_t round, Pass* pass) {
  const uint32_t clients = static_cast<uint32_t>(st.streams.size());
  std::vector<std::unique_ptr<core::Session>> sessions;
  std::vector<Client> runners;
  for (uint32_t c = 0; c < clients; ++c) {
    core::Session* session = nullptr;
    if (spec.sessions) {
      core::SessionOptions options;
      options.name = pass->name + std::to_string(c);
      GHOSTDB_ASSIGN_OR_RETURN(auto opened,
                               engine->db->OpenSession(std::move(options)));
      sessions.push_back(std::move(opened));
      session = sessions.back().get();
    }
    runners.push_back(
        Client{engine, session, pass->traced, c, pass->logs[c], 0});
  }
  const char* name = pass->name.c_str();
  const size_t window =
      spec.window_statements != 0 ? spec.window_statements : count;
  if (round > 0) count = std::min(count, window);
  int64_t t0 = NowNs();
  if (clients == 1) {
    runners[0].Run(st, st.streams[0], first, first + count, window, name,
                   round);
  } else {
    std::latch start(clients + 1);
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        start.arrive_and_wait();
        runners[c].Run(st, st.streams[c], first, first + count, window,
                       name, round);
      });
    }
    t0 = NowNs();
    start.arrive_and_wait();
    for (auto& t : threads) t.join();
  }
  pass->wall_s += Seconds(NowNs() - t0);
  int64_t window_end = t0;
  for (const Client& c : runners) {
    window_end = std::max(window_end, c.window_end);
  }
  pass->window_wall_s.resize(std::max(pass->window_wall_s.size(), round + 1));
  pass->window_wall_s[round] += Seconds(window_end - t0);
  pass->high_water =
      std::max<uint64_t>(pass->high_water,
                         engine->db->allocator().high_water_pages());
  pass->evictions += engine->db->plan_cache_evictions();
  return Status::OK();
}

// Store facts read from the first engine of the untraced pass.
struct StoreFacts {
  std::string tags = "{}";
  uint64_t live_pages = 0;
  uint64_t page_size = 0;
  uint64_t user_bytes = 0;
  uint32_t worker_threads = 0;
  uint32_t shards = 0;
};

StoreFacts FactsOf(const Engine& engine) {
  core::GhostDB& db = *engine.db;
  StoreFacts f;
  f.tags = "{";
  for (const auto& [tag, pages] : db.allocator().usage_by_tag()) {
    if (pages == 0) continue;
    if (f.tags.size() > 1) f.tags += ", ";
    AppendJsonString(&f.tags, tag);
    f.tags += ": " + std::to_string(pages);
  }
  f.tags += "}";
  // Live (mapped) flash pages over the fleet: the allocator's live pages
  // plus the device's own metadata, readable for every shard.
  for (uint32_t s = 0; s < db.shard_count(); ++s) {
    f.live_pages += db.shard_device(s).flash().live_pages();
  }
  f.page_size = engine.cfg.device.flash.page_size;
  f.user_bytes = engine.user_bytes;
  f.worker_threads = engine.cfg.worker_threads;
  f.shards = db.shard_count();
  return f;
}

// Runs the whole stream as episodes, each on a freshly built engine
// (`workers` and `shards` as in DbConfig), then `rounds - 1` more timed
// rounds of every episode's measured window, each again on fresh engines.
// `last` receives the final episode's engine; `facts` the first one's
// store facts.
Status RunPass(Kind kind, uint64_t seed, uint32_t workers, uint32_t shards,
               size_t rounds, const Statements& st, const Spec& spec,
               Pass* pass, std::unique_ptr<Engine>* last, StoreFacts* facts) {
  const size_t length = st.streams[0].size();
  const size_t per_episode =
      (length + Episodes(spec, length) - 1) / Episodes(spec, length);
  pass->logs.resize(st.streams.size());
  std::unique_ptr<Engine> engine;
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t first = 0; first < length; first += per_episode) {
      engine.reset();  // one store in memory at a time
      GHOSTDB_ASSIGN_OR_RETURN(engine, SetUp(kind, seed, workers, shards));
      pass->setups.emplace_back(engine->stage_s, engine->build_s);
      if (facts != nullptr && round == 0 && first == 0) {
        *facts = FactsOf(*engine);
      }
      GHOSTDB_RETURN_NOT_OK(RunEpisode(engine.get(), st, spec, first,
                                       per_episode, round, pass));
    }
  }
  if (last != nullptr) *last = std::move(engine);
  return Status::OK();
}

// Median wall time of crypto::ChaCha20::Crypt over one 2 KB flash page.
double CryptoPageNs() {
  uint8_t key[ghostdb::crypto::ChaCha20::kKeySize] = {1, 2, 3};
  uint8_t nonce[ghostdb::crypto::ChaCha20::kNonceSize] = {4, 5, 6};
  ghostdb::crypto::ChaCha20 cipher(key, nonce);
  std::vector<uint8_t> page(2048, 0x5a);
  constexpr int kBatch = 64;
  std::vector<double> per_page;
  for (int rep = 0; rep < 41; ++rep) {
    int64_t t0 = NowNs();
    for (int i = 0; i < kBatch; ++i) {
      cipher.Crypt(page.data(), page.size(), static_cast<uint32_t>(i));
    }
    per_page.push_back(static_cast<double>(NowNs() - t0) / kBatch);
  }
  std::sort(per_page.begin(), per_page.end());
  return per_page[per_page.size() / 2];
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

int Measure(const MeasureOptions& options) {
  const Kind kind = options.kind;
  const Spec spec = SpecOf(kind);
  const Statements st =
      MakeStatements(kind, options.seed, StreamLength(spec, options.seconds));
  auto fail = [](const Status& s) {
    std::fprintf(stderr, "ghostbench: %s\n", s.ToString().c_str());
    return 1;
  };

  // The traced run times its main pass in one round (it only needs the
  // failure counts and the untraced p50 from it).
  const size_t rounds = options.trace ? 1 : kTimedRounds;
  // setup_s is a median of at least kMinSetups set-ups: with fewer episodes
  // than that over all rounds, extra stores are set up (and discarded)
  // first.
  constexpr size_t kMinSetups = 5;
  std::vector<Pass> passes;
  passes.reserve(3);  // `main` stays valid as the traced passes are added
  passes.emplace_back("main", false);
  Pass& main = passes.back();
  while (!options.trace &&
         main.setups.size() + rounds * Episodes(spec, st.streams[0].size()) <
             kMinSetups) {
    auto e = SetUp(kind, options.seed, 0, 0);
    if (!e.ok()) return fail(e.status());
    main.setups.emplace_back((*e)->stage_s, (*e)->build_s);
  }
  StoreFacts facts;
  Status s = RunPass(kind, options.seed, 0, 0, rounds, st, spec, &main,
                     nullptr, &facts);
  if (!s.ok()) return fail(s);
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_kb = static_cast<double>(usage.ru_maxrss);

  // The traced run: the same stream again on fresh engines with spans on,
  // then the extra passes some per-layer metrics need.
  double crypto_page_ns = 0;
  std::vector<std::pair<double, double>> trace_setups;
  if (options.trace) {
    crypto_page_ns = CryptoPageNs();
    std::unique_ptr<Engine> last;
    passes.emplace_back("traced", true);
    s = RunPass(kind, options.seed, 0, 0, 1, st, spec, &passes.back(),
                &last, nullptr);
    if (!s.ok()) return fail(s);
    if (kind == Kind::kServingMix) {
      // Solo replay: each distinct statement once, one client, on the
      // traced engine — the no-contention latency arbiter.wait_ms_est
      // subtracts.
      Statements solo{st.pool, {{}}};
      std::vector<bool> seen(st.pool.size());
      for (const auto& stream : st.streams) {
        for (uint32_t q : stream) {
          if (!seen[q]) solo.streams[0].push_back(q);
          seen[q] = true;
        }
      }
      passes.emplace_back("solo", true);
      passes.back().logs.resize(1);
      s = RunEpisode(last.get(), solo, spec, 0, solo.streams[0].size(), 0,
                     &passes.back());
      if (!s.ok()) return fail(s);
    }
    last.reset();
    if (kind == Kind::kPaperQ) {
      // The same traced stream on a kFleetShards-shard fleet: the scatter
      // and gather path, fleet.leg_imbalance, and (through the shared
      // answer map) fleet answers byte-identical to the single device's.
      passes.emplace_back("fleet", true);
      s = RunPass(kind, options.seed, 0, kFleetShards, 1, st, spec,
                  &passes.back(), nullptr, nullptr);
      if (!s.ok()) return fail(s);
    }
    if (kind == Kind::kTightPadded) {
      // The same traced stream with a serial pool: pool.speedup_vs_w1.
      passes.emplace_back("traced_w1", true);
      s = RunPass(kind, options.seed, 1, 0, 1, st, spec, &passes.back(),
                  nullptr, nullptr);
      if (!s.ok()) return fail(s);
    }
    trace_setups = passes[1].setups;  // the traced pass's own stores
  }

  // ---- Output ------------------------------------------------------------
  const std::string dir = options.out_dir + "/";
  std::string records, spans, answers_text, statements_text;
  std::map<uint32_t, Answer> answers;
  uint64_t inconsistent = 0;
  std::string pass_walls = "{", window_walls = "{";
  for (Pass& pass : passes) {
    if (pass_walls.size() > 1) pass_walls += ", ";
    if (window_walls.size() > 1) window_walls += ", ";
    pass_walls += "\"" + pass.name + "\": " + Num(pass.wall_s);
    window_walls += "\"" + pass.name + "\": [";
    for (size_t r = 0; r < pass.window_wall_s.size(); ++r) {
      window_walls += (r ? ", " : "") + Num(pass.window_wall_s[r]);
    }
    window_walls += "]";
    for (ClientLog& log : pass.logs) {
      records += log.records;
      inconsistent += log.inconsistent;
      for (auto& [q, a] : log.answers) {
        auto it = answers.find(q);
        if (it == answers.end()) {
          answers.emplace(q, std::move(a));
        } else if (!(it->second == a)) {
          ++inconsistent;
        }
      }
      for (size_t i = 0; i < log.spans.size(); ++i) {
        const Span& sp = log.spans[i];
        spans += "{\"pass\": \"" + pass.name + "\", \"s\": " +
                 std::to_string(sp.stmt) + ", \"i\": " + std::to_string(i) +
                 ", \"n\": \"" + sp.name + "\", \"b\": " +
                 std::to_string(sp.begin) + ", \"e\": " +
                 std::to_string(sp.end) + ", \"p\": " +
                 std::to_string(sp.parent) + "}\n";
      }
    }
  }
  pass_walls += "}";
  window_walls += "}";
  for (const auto& [q, a] : answers) {
    AppendAnswerLine(&answers_text, q, a);
    statements_text += std::to_string(q) + "\t" + st.pool[q] + "\n";
  }
  auto setup_list = [](const std::vector<std::pair<double, double>>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", [" : "[") + Num(v[i].first) + ", " + Num(v[i].second) +
             "]";
    }
    return out + "]";
  };
  std::string meta =
      "{\"workload\": \"" + std::string(KindName(kind)) +
      "\", \"seed\": " + std::to_string(options.seed) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"clients\": " + std::to_string(st.streams.size()) +
      ", \"statements\": " + std::to_string(StreamLength(spec, options.seconds)) +
      ", \"episode_statements\": " + std::to_string(spec.episode_statements) +
      ", \"distinct_statements\": " + std::to_string(st.pool.size()) +
      ", \"host_threads\": " + std::to_string(HostThreads()) +
      ", \"worker_threads\": " + std::to_string(facts.worker_threads) +
      ", \"shards\": " + std::to_string(facts.shards) +
      ", \"setups\": " + setup_list(main.setups) +
      ", \"trace_setups\": " + setup_list(trace_setups) +
      ", \"user_bytes\": " + std::to_string(facts.user_bytes) +
      ", \"live_pages\": " + std::to_string(facts.live_pages) +
      ", \"page_size\": " + std::to_string(facts.page_size) +
      ", \"tags\": " + facts.tags +
      ", \"high_water_pages\": " + std::to_string(main.high_water) +
      ", \"plan_cache_evictions\": " + std::to_string(main.evictions) +
      ", \"peak_rss_kb\": " + Num(peak_rss_kb) +
      ", \"pass_wall_s\": " + pass_walls +
      ", \"window_wall_s\": " + window_walls +
      ", \"window_statements\": " + std::to_string(spec.window_statements) +
      ", \"crypto_page_ns\": " + Num(crypto_page_ns) +
      ", \"inconsistent_answers\": " + std::to_string(inconsistent) + "}\n";
  bool ok = WriteFile(dir + "meta.json", meta) &&
            WriteFile(dir + "records.jsonl", records) &&
            WriteFile(dir + "spans.jsonl", spans) &&
            WriteFile(dir + "answers.jsonl", answers_text) &&
            WriteFile(dir + "statements.tsv", statements_text);
  if (!ok) {
    std::fprintf(stderr, "ghostbench: cannot write into %s\n",
                 options.out_dir.c_str());
    return 1;
  }
  return 0;
}

}  // namespace ghostbench
