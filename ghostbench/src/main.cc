// ghostbench: the measuring and oracle halves of the GhostDB benchmark.
//
//   ghostbench measure <workload> <seed> <seconds> <trace 0|1> <out_dir>
//   ghostbench oracle  <workload> <seed> <statements.tsv> <expected.jsonl>
//
// run.py drives both and computes the metrics; see README.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "measure.h"

int main(int argc, char** argv) {
  using namespace ghostbench;
  auto usage = [] {
    std::fprintf(stderr,
                 "usage: ghostbench measure <workload> <seed> <seconds> "
                 "<trace> <out_dir>\n"
                 "       ghostbench oracle <workload> <seed> <statements> "
                 "<out>\n");
    return 2;
  };
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "measure" && argc == 7) {
    MeasureOptions options;
    auto kind = ParseKind(argv[2]);
    if (!kind.has_value()) return usage();
    options.kind = *kind;
    options.seed = std::strtoull(argv[3], nullptr, 10);
    options.seconds = std::strtod(argv[4], nullptr);
    options.trace = std::string(argv[5]) == "1";
    options.out_dir = argv[6];
    if (options.seconds <= 0) return usage();
    return Measure(options);
  }
  if (command == "oracle" && argc == 6) {
    auto kind = ParseKind(argv[2]);
    if (!kind.has_value()) return usage();
    return Oracle(*kind, std::strtoull(argv[3], nullptr, 10), argv[4],
                  argv[5]);
  }
  return usage();
}
