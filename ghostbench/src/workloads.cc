#include "workloads.h"

#include <algorithm>
#include <map>
#include <thread>

#include "common/rng.h"
#include "workload/synthetic.h"

namespace ghostbench {

using ghostdb::Rng;
using ghostdb::Status;
using ghostdb::catalog::Value;

namespace {

// Fig-3 tree at 2% of the paper's size (T0 = 200K rows): the largest scale
// whose set-ups, measured stream and oracle check fit one run's time
// budget. Smaller stores make result sizes (and with them the allocator
// defect's failure onset) vary more from one dataset seed to the next.
constexpr double kSyntheticScale = 0.02;

// The Fact/Dim serving store of bench_multi_session_throughput.
constexpr int kDimRows = 2000;
constexpr int kFactRows = 60000;

// Query Q's dial grid: 9 sV x 9 sH x (1-3 projected attributes + the
// aggregate form).
constexpr size_t kGridSize = 9 * 9 * 4;

// Episode schedules (the order of statement classes) come from this fixed
// seed, not from --seed: the allocator defect's failure onset depends on
// the order of allocation sizes, and a schedule that changed with the seed
// would move the onset, and with it every latency figure, from run to run.
constexpr uint64_t kScheduleSeed = 20070611;

uint64_t StatementSeed(uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ULL + 0x51ED2701ULL;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

// ---- paper_q -------------------------------------------------------------

// Query Q over the dial sweep of Figs 8-13: every (sV, sH) pair with 1, 2
// or 3 projected visible attributes of T1, plus the whole-result aggregate
// form (a fixed quarter of the grid). Every episode runs the whole grid
// once, in its scheduled order.
//
// Which statement fills a plan-cache shape decides the strategy every later
// statement of that shape reuses, so the grouping of statements into
// shapes is part of the schedule: each statement projects a fixed list of
// attribute slots (about 90 shapes, a few statements each). The seed names
// the slots (a permutation of T1.v1..v5) and moves each hidden selectivity
// by up to 0.2%: enough to change result sizes, too little to flip a plan.
Statements PaperQ(uint64_t seed, size_t total) {
  const std::vector<double> sweep = {0.001, 0.002, 0.005, 0.01, 0.02,
                                     0.05,  0.1,   0.2,   0.5};
  Rng rng(StatementSeed(seed));
  std::vector<std::string> names = {"T1.v1", "T1.v2", "T1.v3", "T1.v4",
                                    "T1.v5"};
  Shuffle(&names, &rng);
  Rng layout(kScheduleSeed);
  std::vector<size_t> slots = {0, 1, 2, 3, 4};
  Statements out;
  for (double sv : sweep) {
    for (double sh : sweep) {
      const std::string from =
          " FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND "
          "T1.v1 < " +
          ghostdb::workload::Dial(sv).ToString() +
          " AND T12.h2 < " +
          ghostdb::workload::Dial(sh * (0.998 + 0.004 * rng.NextDouble()))
              .ToString();
      for (size_t attrs = 1; attrs <= 3; ++attrs) {
        Shuffle(&slots, &layout);
        std::string select = "SELECT T0.id, T1.id, T12.id";
        for (size_t n = 0; n < attrs; ++n) select += ", " + names[slots[n]];
        out.pool.push_back(select + from);
      }
      out.pool.push_back("SELECT COUNT(*), MAX(" +
                         names[layout.Uniform(names.size())] + ")" + from);
    }
  }
  std::vector<uint32_t> order;
  for (uint64_t episode = 0; order.size() < total; ++episode) {
    std::vector<uint32_t> grid(out.pool.size());
    for (uint32_t i = 0; i < grid.size(); ++i) grid[i] = i;
    Rng schedule(kScheduleSeed + episode);
    Shuffle(&grid, &schedule);
    order.insert(order.end(), grid.begin(), grid.end());
  }
  order.resize(total);
  out.streams = {std::move(order)};
  return out;
}

// ---- serving_mix ---------------------------------------------------------

// Five statement kinds in rotation, each with kVariants literal values
// spread evenly over its range (seeded jitter), so every seed serves the
// same mix of work.
Statements ServingMix(uint64_t seed, size_t total, uint32_t clients) {
  constexpr int kKinds = 5;
  constexpr int kVariants = 40;
  Rng rng(StatementSeed(seed));
  auto spread = [&](int j, int lo, int span) {
    return std::to_string(lo + (j * span + static_cast<int>(rng.Uniform(
                                               static_cast<uint64_t>(span)))) /
                                   kVariants);
  };
  Statements out;
  for (int j = 0; j < kVariants; ++j) {
    // Wide visible scan: visible-store scan and projection payload.
    out.pool.push_back(
        "SELECT Fact.id, Fact.v, Fact.tag FROM Fact WHERE Fact.v < " +
        spread(j, 600, 300));
    // Multi-key ORDER BY: the in-memory relational tail.
    out.pool.push_back(
        "SELECT Fact.id, Fact.tag, Fact.v FROM Fact WHERE Fact.v < " +
        spread(j, 500, 300) + " ORDER BY Fact.v DESC, Fact.tag, Fact.id");
    // ORDER BY ... LIMIT: the fused top-K heap.
    out.pool.push_back(
        "SELECT Fact.tag, Fact.v, Fact.id FROM Fact WHERE Fact.v < " +
        spread(j, 500, 300) + " ORDER BY Fact.tag, Fact.v, Fact.id DESC " +
        "LIMIT " + spread(j, 10, 90));
    // GROUP BY: key extraction and host-side folds.
    out.pool.push_back(
        "SELECT Fact.tag, COUNT(*), SUM(Fact.v) FROM Fact WHERE Fact.v < " +
        spread(j, 600, 300) + " GROUP BY Fact.tag");
    // One join with a hidden predicate keeps the device path in the mix.
    out.pool.push_back(
        "SELECT Fact.id, Fact.tag, Dim.v FROM Fact, Dim WHERE Fact.fk = "
        "Dim.id AND Dim.v < " +
        spread(j, 150, 100) + " AND Fact.h < 300 LIMIT 200");
  }
  // Each client rotates through the kinds (offset by client, so concurrent
  // clients run different kinds) and, per kind, through its own seeded
  // permutation of the literal variants: every client serves the whole
  // spread of each kind, whatever the seed.
  out.streams.resize(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    std::vector<std::vector<uint32_t>> variants(kKinds);
    for (auto& v : variants) {
      for (int j = 0; j < kVariants; ++j) v.push_back(static_cast<uint32_t>(j));
      Shuffle(&v, &rng);
    }
    size_t n = total / clients + (c < total % clients ? 1 : 0);
    for (size_t i = 0; i < n; ++i) {
      uint32_t kind = static_cast<uint32_t>((i + c) % kKinds);
      uint32_t variant = variants[kind][(i / kKinds) % kVariants];
      out.streams[c].push_back(variant * kKinds + kind);
    }
  }
  return out;
}

// ---- tight_padded --------------------------------------------------------

// Ad hoc relational statements over varying column lists, keys, aggregates
// and predicates: far more distinct shapes than the 128-entry plan cache.
// The statement skeletons and base literals follow the fixed schedule
// (`rng`); the seed (`jitter`) moves each literal by up to +-25.
std::string TightStatement(uint64_t i, Rng* rng, Rng* jitter) {
  const std::vector<std::string> cols = {"Fact.v", "Fact.tag", "Fact.h"};
  const std::vector<std::string> aggs = {"COUNT(*)", "SUM(Fact.v)",
                                         "MIN(Fact.h)", "MAX(Fact.tag)",
                                         "MAX(Fact.v)"};
  auto pick = [&](const std::vector<std::string>& from, size_t lo,
                  size_t hi) {
    std::vector<std::string> v = from;
    Shuffle(&v, rng);
    v.resize(lo + rng->Uniform(hi - lo + 1));
    return v;
  };
  auto join = [](const std::vector<std::string>& v) {
    std::string s;
    for (const auto& x : v) s += (s.empty() ? "" : ", ") + x;
    return s;
  };
  // Literals >= 100 of the uniform [0, 1000) attributes: never an empty
  // input, so MIN/MAX are always defined.
  auto lit = [&] {
    return std::to_string(125 + rng->Uniform(850) + jitter->Uniform(51) -
                          25);
  };
  std::string where;
  switch (rng->Uniform(3)) {
    case 0: where = " WHERE Fact.v < " + lit(); break;
    case 1: where = " WHERE Fact.h < " + lit(); break;
    default: where = " WHERE Fact.v < " + lit() + " AND Fact.h < " + lit();
  }
  switch (i % 5) {
    case 0:
      return "SELECT DISTINCT " + join(pick(cols, 1, 3)) + " FROM Fact" +
             where;
    case 1: {
      std::vector<std::string> keys = pick(cols, 1, 2);
      return "SELECT " + join(keys) + ", " + join(pick(aggs, 1, 2)) +
             " FROM Fact" + where + " GROUP BY " + join(keys);
    }
    case 2:
      return "SELECT " + join(pick(aggs, 1, 3)) + " FROM Fact" + where;
    default: {
      // ORDER BY (kind 3) or top-K (kind 4); Fact.id breaks ties so the
      // order is total.
      std::vector<std::string> select = pick(cols, 1, 3);
      std::vector<std::string> keys = pick(select, 1, select.size());
      for (auto& k : keys) k += rng->Uniform(2) ? " DESC" : "";
      keys.push_back("Fact.id");
      select.insert(select.begin() + static_cast<long>(
                                         rng->Uniform(select.size() + 1)),
                    "Fact.id");
      std::string sql = "SELECT " + join(select) + " FROM Fact" + where +
                        " ORDER BY " + join(keys);
      if (i % 5 == 4) sql += " LIMIT " + std::to_string(1 + rng->Uniform(100));
      return sql;
    }
  }
}

Statements TightPadded(uint64_t seed, size_t total) {
  Rng rng(kScheduleSeed);
  Rng jitter(StatementSeed(seed));
  Statements out;
  std::map<std::string, uint32_t> index;
  std::vector<uint32_t> order;
  for (uint64_t i = 0; i < total; ++i) {
    std::string sql = TightStatement(i, &rng, &jitter);
    auto [it, inserted] =
        index.try_emplace(sql, static_cast<uint32_t>(out.pool.size()));
    if (inserted) out.pool.push_back(sql);
    order.push_back(it->second);
  }
  out.streams = {std::move(order)};
  return out;
}

Status StageFactDim(ghostdb::core::GhostDB* db, uint64_t seed) {
  GHOSTDB_RETURN_NOT_OK(db->Execute(
      "CREATE TABLE Dim (id INT, v INT, name CHAR(12), h INT HIDDEN)"));
  GHOSTDB_RETURN_NOT_OK(db->Execute(
      "CREATE TABLE Fact (id INT, fk INT REFERENCES Dim HIDDEN, v INT, "
      "tag CHAR(16), h INT HIDDEN)"));
  Rng rng(seed);
  auto int_of = [&](uint64_t bound) {
    return Value::Int32(static_cast<int32_t>(rng.Uniform(bound)));
  };
  auto str_of = [&](const char* prefix, uint64_t bound) {
    std::string s = prefix;
    s += std::to_string(rng.Uniform(bound));
    return Value::String(std::move(s));
  };
  GHOSTDB_ASSIGN_OR_RETURN(ghostdb::core::TableData * dim,
                           db->MutableStaging("Dim"));
  for (int i = 0; i < kDimRows; ++i) {
    GHOSTDB_RETURN_NOT_OK(dim->AppendRow(
        {int_of(1000), str_of("n", 500), int_of(1000)}));
  }
  GHOSTDB_ASSIGN_OR_RETURN(ghostdb::core::TableData * fact,
                           db->MutableStaging("Fact"));
  for (int i = 0; i < kFactRows; ++i) {
    GHOSTDB_RETURN_NOT_OK(fact->AppendRow(
        {int_of(kDimRows), int_of(1000), str_of("t", 900), int_of(1000)}));
  }
  return Status::OK();
}

// The synthetic dataset keeps BuildSynthetic's own seed under every --seed.
// Query Q's cost hinges on plan choices made from data-dependent visible
// counts and then reused through the plan cache, and on where the allocator
// defect's onset falls: across dataset seeds the same statement stream
// moved mean simulated cost by up to 18% and p50 latency by up to 40%, more
// than a run here can average out. --seed still draws the statement text.
ghostdb::workload::SyntheticConfig Synthetic() {
  ghostdb::workload::SyntheticConfig wl;
  wl.scale = kSyntheticScale;
  return wl;
}

}  // namespace

std::optional<Kind> ParseKind(const std::string& name) {
  for (Kind k : {Kind::kPaperQ, Kind::kServingMix, Kind::kTightPadded}) {
    if (name == KindName(k)) return k;
  }
  return std::nullopt;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kPaperQ: return "paper_q";
    case Kind::kServingMix: return "serving_mix";
    case Kind::kTightPadded: return "tight_padded";
  }
  return "?";
}

uint32_t HostThreads() {
  return std::clamp<uint32_t>(std::thread::hardware_concurrency(), 1, 64);
}

Spec SpecOf(Kind kind) {
  Spec spec;
  switch (kind) {
    case Kind::kPaperQ:
      spec.nominal_sps = 43;
      spec.episode_statements = kGridSize;
      spec.window_statements = 128;
      break;
    case Kind::kServingMix:
      spec.clients = std::max<uint32_t>(1, HostThreads() - 1);
      spec.sessions = true;
      spec.nominal_sps = 30;
      break;
    case Kind::kTightPadded:
      spec.sessions = true;
      spec.nominal_sps = 40;
      spec.episode_statements = 300;
      spec.window_statements = 64;
      break;
  }
  return spec;
}

size_t StreamLength(const Spec& spec, double seconds) {
  size_t n = std::max<size_t>(
      spec.clients, static_cast<size_t>(seconds * spec.nominal_sps + 0.5));
  if (spec.episode_statements == 0) return n;
  return std::max<size_t>(1, (n + spec.episode_statements / 2) /
                                 spec.episode_statements) *
         spec.episode_statements;
}

size_t Episodes(const Spec& spec, size_t length) {
  if (spec.episode_statements == 0 || length == 0) return 1;
  return (length + spec.episode_statements - 1) / spec.episode_statements;
}

ghostdb::core::GhostDBConfig DbConfig(Kind kind, uint32_t worker_threads,
                                      uint32_t shard_count,
                                      bool retain_staged_data) {
  ghostdb::core::GhostDBConfig cfg;
  switch (kind) {
    case Kind::kPaperQ:
      cfg = ghostdb::workload::SyntheticDbConfig(Synthetic());
      break;
    case Kind::kServingMix:
      cfg.device.flash.logical_pages = 256 * 1024;
      // Large enough that no working set spills: the widest ORDER BY holds
      // up to 60000 rows of ~32 bytes (the 512 buffers of
      // bench_multi_session_throughput still spill at the top literals).
      cfg.exec.sort_budget_buffers = 2048;
      break;
    case Kind::kTightPadded:
      cfg.device.flash.logical_pages = 256 * 1024;
      // Shipped default tail budget (the session's RAM partition).
      cfg.exec.sort_budget_buffers = 0;
      cfg.exec.volume_padding = ghostdb::exec::VolumePadding::kWorstCase;
      cfg.worker_threads = HostThreads();
      break;
  }
  if (worker_threads != 0) cfg.worker_threads = worker_threads;
  if (shard_count != 0) cfg.shard_count = shard_count;
  cfg.exec.result_row_limit = kResultRowLimit;
  cfg.retain_staged_data = retain_staged_data;
  return cfg;
}

Status StageData(ghostdb::core::GhostDB* db, Kind kind, uint64_t seed) {
  switch (kind) {
    case Kind::kPaperQ:
      return ghostdb::workload::StageSynthetic(db, Synthetic());
    case Kind::kServingMix:
    case Kind::kTightPadded:
      return StageFactDim(db, seed);
  }
  return Status::InvalidArgument("unknown workload");
}

Statements MakeStatements(Kind kind, uint64_t seed, size_t total) {
  switch (kind) {
    case Kind::kPaperQ:
      return PaperQ(seed, total);
    case Kind::kServingMix:
      return ServingMix(seed, total, SpecOf(kind).clients);
    case Kind::kTightPadded:
      return TightPadded(seed, total);
  }
  return {};
}

}  // namespace ghostbench
