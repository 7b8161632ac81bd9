#pragma once
// The per-layer metrics of the traced run.  A workload folds what it saw
// into LayerData — ObsSink counters and gauges, span tables, batch
// scheduling facts, and the replies of the serve layer probe — and
// report_layers() turns it into every per-layer metric.  A layer the
// workload does not exercise reports 0 (no serve layer in big_net).

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "flow/batch.h"
#include "obs/sink.h"
#include "spans.h"

namespace perfbench {

/// The traced run arms every net guard with this step budget: it cannot
/// trip, but an armed guard counts the net's DP steps (runtime.guard_steps),
/// which an unarmed one does not.
inline constexpr std::uint64_t kUntrippableStepBudget = ~std::uint64_t{0};

struct LayerData {
  std::map<std::string, double> counters;  ///< counter_name -> summed value
  std::map<std::string, double> gauges;    ///< gauge_name -> max
  SpanTable spans;

  // flow / runtime: summed over the traced BatchRunner calls.
  double wall_ms = 0.0;      ///< the benchmark's spans around run/run_nets
  double net_ms_sum = 0.0;   ///< BatchStats::total_net_ms
  double net_ms_max = 0.0;   ///< largest single net
  double dominant_ms = 0.0;  ///< per call, its largest net, summed
  std::size_t threads = 1;
  std::uint64_t steals = 0;
  std::vector<std::uint64_t> worker_tasks;  ///< summed per worker

  // obs
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
  double overhead_pct = 0.0;

  // serve (samples in ms)
  std::vector<double> queue_ms, run_ms_cold, run_ms_warm, transport_ms,
      gen_late_ms;
  std::uint64_t refused = 0;

  /// Folds one BatchRunner call's ObsSink in: counters, gauges, spans.
  void add_sink(const merlin::ObsSink& sink);
  /// Folds one BatchRunner call's per-net times in; `call_wall_ms` is the
  /// benchmark's own span around the call.
  void add_batch(const merlin::BatchStats& st, double call_wall_ms);
  /// Folds one thread pool's scheduling facts in.  A pool counts steals
  /// and tasks per worker from its creation, so a warm pool (a shared
  /// BatchContext) is folded in once, after its last traced call.
  void add_pool(std::uint64_t pool_steals,
                const std::vector<std::uint64_t>& pool_worker_tasks);
};

/// Emits every per-layer metric into `rep`, and fails the run when the
/// trace is not valid: dropped spans, or per-net self times that do not
/// sum to the measured per-net time within the stated tolerance.
void report_layers(const LayerData& d, Report& rep);

/// FNV digest of every deterministic count (counters and gauges that do
/// not depend on the clock), printed so two sets of runs can be compared.
[[nodiscard]] std::uint64_t deterministic_digest(const LayerData& d);

/// The traced run of an in-process workload: `calls` BatchRunner calls,
/// made once untraced and once traced, each time on fresh state.
struct TracedCalls {
  std::string workload;   ///< names the root span and the trace file
  std::string call_name;  ///< span name of one call ("bench.run", ...)
  std::size_t calls = 0;
  /// True when the calls share one BatchContext, whose pool counts steals
  /// and tasks from its creation (folded in once, after the last call);
  /// false when every call has a fresh pool of its own.
  bool shared_pool = false;
  std::function<void()> set_up;  ///< replaces the workload state
  std::function<merlin::BatchResult(std::size_t, merlin::ObsSink*)> call;
  std::function<void(std::size_t, const merlin::BatchResult&)> check;
  /// Optional: folds in layers the calls do not reach (the serve layer),
  /// adding its own spans to the benchmark trace.
  std::function<void(LayerData&, BenchTrace&)> more_layers;
};

/// Runs `t`, fails the run unless every traced call reproduces its
/// untraced result digest and deterministic batch counts, writes the
/// benchmark's spans to the work directory, reports every per-layer metric
/// and prints the deterministic-count digest.
void run_traced_calls(const Options& opt, Report& rep, const TracedCalls& t);

/// The serve layer, measured in many_nets' traced run: spawns one
/// merlin_d, pre-warms a hot set, sends a low-rate and a high-rate
/// submit_net schedule (open loop, a span around every submit_net in
/// `trace`), checks every reply, and folds the replies' queue, run and
/// transport times into `d`.  Defined in serve.cpp.
void probe_serve_layer(const Options& opt, Report& rep, LayerData& d,
                       BenchTrace& trace);

}  // namespace perfbench
