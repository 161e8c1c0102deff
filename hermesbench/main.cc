// hermesbench: the repository benchmark program.
//
//   hermesbench --workload <s2t_batch|qut_stream|serve_mixed> --seed <n>
//               --seconds <s> --trace <0|1>
//
// Generates the workload's inputs from the seed, sets the system up,
// measures for the given seconds, checks the outputs, and prints one JSON
// result line last on standard output. Exit code 0 means the run
// completed (the JSON's `correct` says whether every check passed).
// See README.md in this directory for the workloads and metrics.

#include <sys/stat.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::cerr << "hermesbench: " << why
            << "\nusage: hermesbench --workload <s2t_batch|qut_stream|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hermesbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!(args.seconds > 0.0)) return Usage("--seconds must be > 0");
  ::mkdir(hermesbench::kOutDir, 0755);

  hermesbench::Report report;
  hermesbench::Tracer tracer(args.trace);
  int rc;
  if (args.workload == "s2t_batch") {
    rc = hermesbench::RunS2tBatch(args, &report, &tracer);
  } else if (args.workload == "qut_stream") {
    rc = hermesbench::RunQutStream(args, &report, &tracer);
  } else if (args.workload == "serve_mixed") {
    rc = hermesbench::RunServeMixed(args, &report, &tracer);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (rc != 0) return rc;

  if (args.trace) {
    for (const auto& [layer, us] : tracer.SelfUsPerRequest()) {
      report.Set("self." + layer + "_us", us);
    }
    report.Set("trace.spans", static_cast<double>(tracer.size()));
    const std::string path = std::string(hermesbench::kOutDir) + "/spans-" +
                             args.workload + ".jsonl";
    if (!tracer.WriteJsonl(path)) {
      std::cerr << "hermesbench: cannot write " << path << "\n";
      return 1;
    }
  }
  if (report.attempted() == 0) {
    std::cerr << "hermesbench: no operation was attempted\n";
    return 1;
  }
  return report.Print(args.workload, args.trace) ? 0 : 1;
}
