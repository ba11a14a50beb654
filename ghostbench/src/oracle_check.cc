#include <fstream>
#include <thread>
#include <vector>

#include "measure.h"
#include "json_out.h"
#include "reference/oracle.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace ghostbench {

namespace {

// One expected-answer line for `sql` over the staged data of `db`.
std::string Evaluate(ghostdb::core::GhostDB& db, uint32_t q,
                     const std::string& sql) {
  std::string error;
  auto parsed = ghostdb::sql::Parse(sql);
  if (!parsed.ok() ||
      !std::holds_alternative<ghostdb::sql::SelectStmt>(*parsed)) {
    error = parsed.ok() ? "not a SELECT" : parsed.status().ToString();
  } else {
    auto bound = ghostdb::sql::Bind(
        std::get<ghostdb::sql::SelectStmt>(*parsed), db.schema(), sql);
    if (!bound.ok()) {
      error = bound.status().ToString();
    } else {
      auto rows =
          ghostdb::reference::Evaluate(db.schema(), db.staged(), *bound);
      if (rows.ok()) {
        std::string line;
        AppendAnswerLine(&line, q,
                         MakeAnswer(rows->size(), *rows, kResultRowLimit));
        return line;
      }
      error = rows.status().ToString();
    }
  }
  std::string line = "{\"q\": " + std::to_string(q) + ", \"error\": ";
  AppendJsonString(&line, error);
  return line + "}\n";
}

}  // namespace

int Oracle(Kind kind, uint64_t seed, const std::string& statements_path,
           const std::string& out_path) {
  std::vector<std::pair<uint32_t, std::string>> statements;
  {
    std::ifstream in(statements_path);
    if (!in) {
      std::fprintf(stderr, "ghostbench: cannot read %s\n",
                   statements_path.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      size_t tab = line.find('\t');
      if (tab == std::string::npos) continue;
      statements.emplace_back(
          static_cast<uint32_t>(std::stoul(line.substr(0, tab))),
          line.substr(tab + 1));
    }
  }
  // The owner-side copy of the dataset, staged exactly as the measured
  // process staged it. Bind needs only the finalized schema, so there is
  // no Build().
  ghostdb::core::GhostDB db(DbConfig(kind, 1, 0, /*retain_staged_data=*/true));
  ghostdb::Status staged = StageData(&db, kind, seed);
  if (!staged.ok()) {
    std::fprintf(stderr, "ghostbench: %s\n", staged.ToString().c_str());
    return 1;
  }
  // Evaluate() only reads the schema and the staged rows, so the
  // statements split over the host's threads.
  std::vector<std::string> lines(statements.size());
  auto evaluate = [&](size_t first, size_t step) {
    for (size_t i = first; i < statements.size(); i += step) {
      lines[i] = Evaluate(db, statements[i].first, statements[i].second);
    }
  };
  const size_t threads = HostThreads();
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) pool.emplace_back(evaluate, t, threads);
  evaluate(0, threads);
  for (auto& t : pool) t.join();
  std::string text;
  for (const auto& l : lines) text += l;
  if (!WriteFile(out_path, text)) {
    std::fprintf(stderr, "ghostbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace ghostbench
