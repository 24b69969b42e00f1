// apq_perfbench: runs one workload of the end-to-end benchmark and prints
// every metric, ending with one JSON result line.
//
//   apq_perfbench --workload tpch|serve --seed N --seconds S
//                 --trace 0|1 [--trace-out spans.json]
//
// perfbench/run.py builds this binary and is the benchmark's entry point.
#include <cstdio>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Options opt;
  const std::string err = perfbench::ParseOptions(argc, argv, &opt);
  if (!err.empty()) {
    std::fprintf(stderr,
                 "apq_perfbench: %s\nusage: apq_perfbench --workload "
                 "tpch|serve --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 err.c_str());
    return 2;
  }
  perfbench::Report report;
  perfbench::Tally tally;
  perfbench::SpanLog spans;
  perfbench::AddHostFacts(&report, opt);
  bool ok = false;
  if (opt.workload == "tpch") {
    ok = perfbench::RunTpch(opt, &report, &tally, &spans);
  } else {
    ok = perfbench::RunServe(opt, &report, &tally, &spans);
  }
  if (!ok) return 1;
  if (opt.trace && !opt.trace_out.empty()) {
    if (!spans.Write(opt.trace_out, report.FactsJson())) {
      std::fprintf(stderr, "apq_perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
    report.Fact("trace_file", opt.trace_out);
  }
  return report.Print(stdout, opt.trace, tally) ? 0 : 1;
}
