// Parallel batch engine scaling exhibit: per-thread-count wall time and
// speedup for a circuit-scale Flow III run, plus per-net latency
// percentiles, plus a differential check that every thread count produced
// bit-identical results (the invariant tests/test_batch_differential.cpp
// enforces).
//
//   bench_parallel [--quick] [--gates N] [--seed S] [--flow 1|2|3]
//                  [--stats-json FILE]
//   bench_parallel --json FILE
//
// Speedup is hardware-dependent; on a single-core container every
// configuration degenerates to ~1x while the differential and counters
// columns must stay "identical"/"yes" regardless.  --stats-json writes the
// observability export of the last (widest) run.
//
// --json records the end-to-end intra-net exhibit instead (BENCH_E2E.json):
// `merlin_cli --circuit 26 8 --flow 3`, whose one 9-sink net holds nearly
// the whole run, cold (fresh cache) at 1 and 4 threads, kReps reps each,
// interleaved.  It writes the wall-time min/median/max per
// thread count and the deterministic work counts, which every rep at
// every thread count must reproduce: tools/bench_compare gates those with
// zero tolerance, plus the result digest, and `intra_net_faster` (4-thread
// min below 1-thread min).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "buflib/library.h"
#include "cache/shard.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "flow/report.h"
#include "obs/json.h"

namespace {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// One cold `merlin_cli --circuit 26 8 --flow 3` run: the CLI's circuit,
// default options and 64 MB shared cache, with an untrippable step budget
// so guard_steps is counted.
merlin::BatchResult e2e_run(const merlin::BufferLibrary& lib,
                            const merlin::Circuit& ckt, std::size_t threads,
                            merlin::ObsSink& sink) {
  using namespace merlin;
  CacheConfig cc;
  cc.capacity_nodes = 64ull * 1024 * 1024 / sizeof(SolNode);
  SubproblemCache cache(cc);
  BatchOptions opts;
  opts.threads = threads;
  opts.flow = FlowKind::kFlow3;
  opts.cache = &cache;
  opts.obs = &sink;
  opts.guard.step_budget = std::uint64_t{1} << 62;
  return BatchRunner(lib, opts).run(ckt);
}

int run_e2e(const std::string& path) {
  using namespace merlin;
  constexpr int kReps = 3;
  const BufferLibrary lib = make_standard_library();
  CircuitSpec spec;
  spec.name = "ckt26";
  spec.n_gates = 26;
  spec.seed = 8;
  const Circuit ckt = make_random_circuit(spec, lib);
  const std::size_t thread_counts[2] = {1, 4};
  std::vector<double> wall[2];
  std::uint64_t digest = 0;
  Counters counters;
  bool digest_identical = true, counters_identical = true, first = true;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int t = 0; t < 2; ++t) {
      ObsSink sink;
      const BatchResult r = e2e_run(lib, ckt, thread_counts[t], sink);
      wall[t].push_back(r.stats.wall_ms);
      const std::uint64_t d = batch_result_digest(r);
      if (first) {
        digest = d;
        counters = sink.counters;
        first = false;
      }
      digest_identical = digest_identical && d == digest;
      counters_identical = counters_identical && sink.counters == counters;
      std::printf("rep %d threads %zu wall %.1f ms digest %016llx\n", rep,
                  thread_counts[t], r.stats.wall_ms,
                  static_cast<unsigned long long>(d));
      std::fflush(stdout);
    }
  }
  for (auto& w : wall) std::sort(w.begin(), w.end());
  const auto median = [](const std::vector<double>& w) { return w[w.size() / 2]; };
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
  std::ofstream out(path, std::ios::binary);
  out << "{\n"
      << "  \"schema\": \"merlin.bench_e2e\",\n"
      << "  \"version\": 1,\n"
      << "  \"workload\": \"merlin_cli --circuit 26 8 --flow 3 (cold, 64 MB cache)\",\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"reps\": " << kReps << ",\n"
      << "  \"digest\": \"" << hex << "\",\n"
      << "  \"digest_hi\": " << (digest >> 32) << ",\n"
      << "  \"digest_lo\": " << (digest & 0xFFFFFFFFu) << ",\n"
      << "  \"digest_identical\": " << (digest_identical ? "true" : "false") << ",\n"
      << "  \"counters_identical\": " << (counters_identical ? "true" : "false") << ",\n";
  for (const Counter c : {Counter::kCurvePointsPushed, Counter::kLayerCalls,
                          Counter::kGuardSteps, Counter::kMerlinIterations})
    out << "  \"" << counter_name(c) << "\": " << counters.get(c) << ",\n";
  for (int t = 0; t < 2; ++t) {
    const std::string k = "wall_" + std::to_string(thread_counts[t]) + "t";
    out << "  \"" << k << "_min_ms\": " << wall[t].front() << ",\n"
        << "  \"" << k << "_median_ms\": " << median(wall[t]) << ",\n"
        << "  \"" << k << "_max_ms\": " << wall[t].back() << ",\n";
  }
  out << "  \"speedup_min\": " << wall[0].front() / wall[1].front() << ",\n"
      << "  \"intra_net_faster\": "
      << (wall[1].front() < wall[0].front() ? "true" : "false") << "\n"
      << "}\n";
  std::printf("wrote %s (1t min %.1f ms, 4t min %.1f ms, digest %s)\n",
              path.c_str(), wall[0].front(), wall[1].front(), hex);
  return digest_identical && counters_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace merlin;

  std::size_t n_gates = 90;  // ~50+ driven nets
  std::uint64_t seed = 7;
  int flow = 3;
  bool quick = false;
  std::string stats_json_path;
  std::string e2e_json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--gates") == 0 && i + 1 < argc)
      n_gates = std::strtoul(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--flow") == 0 && i + 1 < argc)
      flow = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--stats-json") == 0 && i + 1 < argc)
      stats_json_path = argv[++i];
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      e2e_json_path = argv[++i];
  }
  if (!e2e_json_path.empty()) return run_e2e(e2e_json_path);
  if (quick) n_gates = std::min<std::size_t>(n_gates, 40);

  const BufferLibrary lib = make_standard_library();
  CircuitSpec spec;
  spec.name = "par" + std::to_string(n_gates);
  spec.n_gates = n_gates;
  spec.seed = seed;
  const Circuit ckt = make_random_circuit(spec, lib);

  std::printf("bench_parallel: circuit %s, %zu gates, %zu nets, flow %d, "
              "%u hardware threads\n\n",
              ckt.name.c_str(), ckt.gates.size(),
              extract_circuit_nets(ckt, lib).size(), flow,
              std::thread::hardware_concurrency());

  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  if (quick) thread_counts = {1, 2, 4};

  TextTable table({"threads", "wall_ms", "speedup", "p50_ms", "p90_ms",
                   "p99_ms", "max_ms", "steals", "identical", "counters"});
  double wall_1t = 0.0;
  BatchResult baseline;
  ObsSink baseline_sink;
  std::string last_json;
  for (const std::size_t threads : thread_counts) {
    ObsSink sink;
    BatchOptions opts;
    opts.threads = threads;
    opts.flow = static_cast<FlowKind>(flow);
    opts.obs = &sink;
    const BatchResult r = BatchRunner(lib, opts).run(ckt);

    std::vector<double> lat;
    lat.reserve(r.nets.size());
    for (const BatchNetResult& n : r.nets) lat.push_back(n.wall_ms);

    if (threads == 1) {
      wall_1t = r.stats.wall_ms;
      baseline = r;
      baseline_sink.merge_from(sink);
    }
    // The obs invariant on top of the result invariant: aggregate counters
    // must not depend on the thread count either.
    const bool counters_ok = sink.counters == baseline_sink.counters;
    table.begin_row();
    table.cell(threads);
    table.cell(r.stats.wall_ms, 1);
    table.cell(wall_1t > 0.0 ? wall_1t / r.stats.wall_ms : 1.0, 2);
    table.cell(percentile(lat, 0.50), 2);
    table.cell(percentile(lat, 0.90), 2);
    table.cell(percentile(lat, 0.99), 2);
    table.cell(percentile(lat, 1.0), 2);
    table.cell(r.stats.steals);
    table.cell(std::string(
        threads == 1 ? "-" : batch_results_identical(baseline, r) ? "yes" : "NO"));
    table.cell(std::string(threads == 1 ? "-" : counters_ok ? "yes" : "NO"));

    if (!stats_json_path.empty()) {
      RuntimeInfo rt;
      rt.threads = r.stats.threads_used;
      rt.steals = r.stats.steals;
      rt.wall_ms = r.stats.wall_ms;
      rt.worker_tasks = r.stats.worker_tasks;
      last_json = stats_to_json(sink, rt);
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("per-net latency percentiles are job wall times as scheduled;\n"
              "'identical' compares every scheduling-independent field "
              "against the 1-thread run,\n'counters' the aggregate "
              "observability counters.\n");
  if (!stats_json_path.empty()) {
    std::ofstream out(stats_json_path, std::ios::binary);
    out << last_json << '\n';
    std::printf("wrote %s\n", stats_json_path.c_str());
  }
  return 0;
}
