// Cache exhibit: what the shared cross-net SubproblemCache (src/cache/)
// buys on re-optimization.  Three circuit-scale Flow III configurations run
// on the same workload:
//
//   off   — no shared store (per-worker scratch sessions only);
//   cold  — a fresh shared store, populated as the batch runs;
//   warm  — the store already holds the previous run's entries, so every
//           recurring sub-problem is adopted instead of recomputed (the
//           server-mode scenario: re-optimize after a small ECO).  Every
//           net's whole-net group is among them, so the warm leg runs no
//           DP layer at all (warm_layer_calls == 0).
//
// The headline numbers are the identity bits — cold must be bit-identical
// to off, warm must produce the exact same trees with strictly more cache
// hits — plus the warm-rerun speedup.  Hit counts and store sizes are
// deterministic for the fixed workload; wall times are min-of-reps.
//
// Usage: bench_cache [--smoke] [--json FILE]
//   --smoke shrinks the circuit, for CI sanity runs.
//   --json writes the machine-readable baseline (see BENCH_CACHE.json),
//   gated in CI by tools/bench_compare.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "buflib/library.h"
#include "cache/shard.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "flow/report.h"
#include "net/generator.h"
#include "obs/sink.h"

namespace {

using namespace merlin;

/// Deterministic, cheap Flow III knobs (the differential-test workload).
FlowConfig bench_cfg() {
  FlowConfig cfg;
  cfg.candidates.policy = CandidatePolicy::kReducedHanan;
  cfg.candidates.budget_factor = 1.0;
  cfg.candidates.max_candidates = 10;
  cfg.merlin.bubble.alpha = 3;
  cfg.merlin.bubble.inner_prune.max_solutions = 3;
  cfg.merlin.bubble.group_prune.max_solutions = 3;
  cfg.merlin.bubble.buffer_stride = 6;
  cfg.merlin.bubble.extension_neighbors = 4;
  cfg.merlin.max_iterations = 2;
  cfg.engine_prune.max_solutions = 4;
  return cfg;
}

struct Timed {
  BatchResult result;
  double ms = 0.0;
};

Timed run_once(const Circuit& ckt, const BufferLibrary& lib,
               SubproblemCache* cache, ObsSink* obs) {
  BatchOptions opts;
  opts.threads = 2;
  opts.flow = FlowKind::kFlow3;
  opts.scaled_config = false;
  opts.config = bench_cfg();
  opts.cache = cache;
  opts.obs = obs;
  const auto t0 = std::chrono::steady_clock::now();
  Timed t;
  t.result = BatchRunner(lib, opts).run(ckt);
  t.ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
             .count();
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  if (cache_env_off())
    std::printf("WARNING: MERLIN_CACHE=off in the environment — the warm "
                "legs will not share and the hit gates will fail.\n");

  const BufferLibrary lib = make_standard_library();
  CircuitSpec spec;
  spec.name = "cachebench";
  spec.n_gates = smoke ? 14 : 26;
  spec.n_primary_inputs = 5;
  spec.max_fanout = 7;
  spec.seed = 71;
  const Circuit ckt = make_random_circuit(spec, lib);
  const CacheConfig cache_cfg{1u << 22};  // 128 MB ceiling, never hit
  constexpr int kReps = 3;

  // off: no shared store.
  double off_ms = 0.0;
  BatchResult off;
  for (int rep = 0; rep < kReps; ++rep) {
    Timed t = run_once(ckt, lib, nullptr, nullptr);
    if (rep == 0 || t.ms < off_ms) off_ms = t.ms;
    off = std::move(t.result);
  }

  // cold: a fresh store per rep (first-contact cost, publish included).
  double cold_ms = 0.0;
  BatchResult cold;
  std::size_t store_entries = 0;
  std::uint64_t store_nodes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    SubproblemCache fresh(cache_cfg);
    Timed t = run_once(ckt, lib, &fresh, nullptr);
    if (rep == 0 || t.ms < cold_ms) cold_ms = t.ms;
    cold = std::move(t.result);
    store_entries = fresh.entry_count();
    store_nodes = fresh.node_cost();
  }

  // warm: one populating run, then reps against the warmed store.
  SubproblemCache warmed(cache_cfg);
  (void)run_once(ckt, lib, &warmed, nullptr);
  double warm_ms = 0.0;
  BatchResult warm;
  std::uint64_t warm_shared_hits = 0;
  std::uint64_t warm_layer_calls = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    ObsSink sink;
    Timed t = run_once(ckt, lib, &warmed, &sink);
    if (rep == 0 || t.ms < warm_ms) warm_ms = t.ms;
    warm = std::move(t.result);
    warm_shared_hits = sink.counters.get(Counter::kCacheSharedHits);
    warm_layer_calls = sink.counters.get(Counter::kLayerCalls);
  }

  const bool identical_off = batch_results_identical(off, cold);
  const bool identical_warm = batch_results_equivalent(cold, warm);
  const bool warm_faster = warm_ms < cold_ms;
  const double warm_speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  const double overhead_pct =
      off_ms > 0.0 ? (cold_ms - off_ms) / off_ms * 100.0 : 0.0;

  TextTable t({"leg", "wall (ms)", "cache hits", "notes"});
  t.begin_row();
  t.cell("off");
  t.cell(off_ms, 1);
  t.cell(off.stats.det.cache_hits);
  t.cell("per-worker scratch only");
  t.begin_row();
  t.cell("cold");
  t.cell(cold_ms, 1);
  t.cell(cold.stats.det.cache_hits);
  t.cell(std::string("publishes ") + std::to_string(store_entries) +
         " entries");
  t.begin_row();
  t.cell("warm");
  t.cell(warm_ms, 1);
  t.cell(warm.stats.det.cache_hits);
  t.cell(std::to_string(warm_shared_hits) + " shared adoptions, " +
         std::to_string(warm_layer_calls) + " layer calls");
  std::printf("%s\n", t.render().c_str());
  std::printf("identical off/cold: %s   identical cold/warm: %s   "
              "warm speedup: %.2fx   cold overhead: %.1f%%\n",
              identical_off ? "yes" : "NO", identical_warm ? "yes" : "NO",
              warm_speedup, overhead_pct);

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    out << "{\n"
        << "  \"schema\": \"merlin.bench_cache\",\n"
        << "  \"version\": 1,\n"
        << "  \"seed\": " << spec.seed << ",\n"
        << "  \"gates\": " << spec.n_gates << ",\n"
        << "  \"off_ms\": " << off_ms << ",\n"
        << "  \"cold_ms\": " << cold_ms << ",\n"
        << "  \"warm_ms\": " << warm_ms << ",\n"
        << "  \"warm_speedup\": " << warm_speedup << ",\n"
        << "  \"cache_overhead_pct\": " << overhead_pct << ",\n"
        << "  \"warm_shared_hits\": " << warm_shared_hits << ",\n"
        << "  \"warm_layer_calls\": " << warm_layer_calls << ",\n"
        << "  \"store_entries\": " << store_entries << ",\n"
        << "  \"store_nodes\": " << store_nodes << ",\n"
        << "  \"identical_off\": " << (identical_off ? "true" : "false")
        << ",\n"
        << "  \"identical_warm\": " << (identical_warm ? "true" : "false")
        << ",\n"
        << "  \"warm_faster\": " << (warm_faster ? "true" : "false") << "\n"
        << "}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return (identical_off && identical_warm) ? 0 : 1;
}
