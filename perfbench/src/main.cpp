// merlin_perfbench — the repository benchmark.
//
//   merlin_perfbench --workload big_net|many_nets --seed N --seconds S
//                    --trace 0|1 --daemon MERLIN_D --work-dir DIR
//
// Runs one workload for about S seconds and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Every
// answer is checked; a wrong one makes `correct` false and the exit code
// 1.  Errors that prevent a result exit 2 without printing one.
// perfbench/run.py builds this binary and is the command to run.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: merlin_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --daemon MERLIN_D --work-dir DIR\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--daemon") {
      opt.daemon_bin = v;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      usage();
    }
  }
  if (opt.workload.empty() || opt.work_dir.empty()) usage();

  Report rep;
  try {
    if (opt.workload == "big_net") {
      run_big_net(opt, rep);
    } else if (opt.workload == "many_nets") {
      run_many_nets(opt, rep);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (rep.attempted() == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 2;
  }
  if (!opt.trace)
    rep.set("ok_ratio",
            1.0 - static_cast<double>(rep.failed()) /
                      static_cast<double>(rep.attempted()),
            "ratio");
  std::printf("%s\n", rep.to_json().c_str());
  return rep.correct() ? 0 : 1;
}
