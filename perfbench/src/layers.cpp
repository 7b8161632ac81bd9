#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "obs/counters.h"
#include "settings.h"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

/// Clock-driven counters: excluded from the deterministic digest.
bool clock_driven(const std::string& counter) {
  return counter == "deadline_trips" || counter == "serve_deadline_expired" ||
         counter == "serve_shed_tightened";
}

/// Per-net self times must add up to the measured per-net time within
/// this share (plus a floor per net for clock granularity).
constexpr double kClosureTolerance = 0.02;
constexpr double kClosureFloorMsPerNet = 0.05;

}  // namespace

void LayerData::add_sink(const merlin::ObsSink& sink) {
  for (std::size_t i = 0; i < merlin::kCounterCount; ++i) {
    const auto c = static_cast<merlin::Counter>(i);
    counters[merlin::counter_name(c)] += static_cast<double>(sink.counters.get(c));
  }
  for (std::size_t i = 0; i < merlin::kGaugeCount; ++i) {
    const auto g = static_cast<merlin::Gauge>(i);
    double& v = gauges[merlin::gauge_name(g)];
    v = std::max(v, static_cast<double>(sink.gauges.get(g)));
  }
  spans.add_engine_spans(sink.spans().snapshot());
  spans_recorded += sink.spans().size();
  spans_dropped += sink.spans().dropped();
}

void LayerData::add_batch(const merlin::BatchStats& st, double call_wall_ms) {
  wall_ms += call_wall_ms;
  net_ms_sum += st.total_net_ms;
  net_ms_max = std::max(net_ms_max, st.max_net_ms);
  dominant_ms += st.max_net_ms;
  threads = st.threads_used;
}

void LayerData::add_pool(std::uint64_t pool_steals,
                         const std::vector<std::uint64_t>& pool_worker_tasks) {
  steals += pool_steals;
  if (worker_tasks.size() < pool_worker_tasks.size())
    worker_tasks.resize(pool_worker_tasks.size());
  for (std::size_t w = 0; w < pool_worker_tasks.size(); ++w)
    worker_tasks[w] += pool_worker_tasks[w];
}

void report_layers(const LayerData& d, Report& rep) {
  const auto c = [&](const char* k) { return get(d.counters, k); };
  const auto g = [&](const char* k) { return get(d.gauges, k); };
  const auto q = [](const std::vector<double>& v, double p) {
    return quantile(v, p);
  };

  // serve
  rep.set("serve.queue_ms.p50", q(d.queue_ms, 0.5), "ms");
  rep.set("serve.queue_ms.p95", q(d.queue_ms, 0.95), "ms");
  rep.set("serve.run_ms.cold_p50", q(d.run_ms_cold, 0.5), "ms");
  rep.set("serve.run_ms.warm_p50", q(d.run_ms_warm, 0.5), "ms");
  rep.set("serve.transport_ms.p50", q(d.transport_ms, 0.5), "ms");
  rep.set("serve.refused", static_cast<double>(d.refused), "count");
  rep.set("serve.gen_late_ms.p95", q(d.gen_late_ms, 0.95), "ms");

  // flow
  const double nets = c("nets_processed");
  rep.set("flow.wall_ms", d.wall_ms, "ms");
  rep.set("flow.net_ms_sum", d.net_ms_sum, "ms");
  rep.set("flow.net_ms_max", d.net_ms_max, "ms");
  rep.set("flow.dominant_share", ratio(d.dominant_ms, d.wall_ms), "ratio");
  rep.set("flow.busy_ratio",
          ratio(d.net_ms_sum, d.wall_ms * static_cast<double>(d.threads)),
          "ratio");
  rep.set("flow.reduce_ms", d.spans.get("batch.reduce").total_ms, "ms");
  rep.set("flow.nets", nets, "count");
  rep.set("flow.nets_trivial", c("trivial_nets"), "count");
  rep.set("flow.nets_not_ok", nets - c("nets_ok"), "count");
  rep.set("flow.retries", c("net_retries"), "count");

  // runtime
  rep.set("runtime.pool_tasks", c("pool_tasks"), "count");
  rep.set("runtime.steals", static_cast<double>(d.steals), "count");
  double imbalance = 0.0;
  if (!d.worker_tasks.empty()) {
    const double sum = static_cast<double>(std::accumulate(
        d.worker_tasks.begin(), d.worker_tasks.end(), std::uint64_t{0}));
    const double mx = static_cast<double>(
        *std::max_element(d.worker_tasks.begin(), d.worker_tasks.end()));
    imbalance = ratio(mx, sum / static_cast<double>(d.worker_tasks.size()));
  }
  rep.set("runtime.task_imbalance", imbalance, "ratio");
  rep.set("runtime.guard_steps", c("guard_steps"), "count");

  // core
  rep.set("core.merlin_iterations", c("merlin_iterations"), "count");
  rep.set("core.bubble_runs", c("bubble_runs"), "count");
  rep.set("core.layer_calls", c("layer_calls"), "count");
  rep.set("core.iteration_ms", d.spans.get("merlin.iteration").self_ms, "ms");
  rep.set("core.bubble_self_ms", d.spans.get("bubble.construct").self_ms, "ms");
  rep.set("core.layer_self_ms", d.spans.get("bubble.layer").self_ms, "ms");
  rep.set("core.compact_ms", d.spans.get("merlin.compact").self_ms, "ms");

  // curve
  rep.set("curve.points_pushed", c("curve_points_pushed"), "count");
  rep.set("curve.points_kept", c("curve_points_kept"), "count");
  rep.set("curve.keep_ratio",
          ratio(c("curve_points_kept"), c("curve_points_pushed")), "ratio");
  rep.set("curve.merge_candidates", c("merge_candidates"), "count");
  rep.set("curve.extend_candidates", c("extend_candidates"), "count");
  rep.set("curve.buffer_candidates", c("buffer_candidates"), "count");
  rep.set("curve.peak_width", g("curve_peak_width"), "count");
  rep.set("curve.arena_nodes", c("arena_nodes_allocated"), "count");
  rep.set("curve.arena_peak_bytes", g("arena_peak_bytes"), "bytes");
  rep.set("curve.arena_compactions", c("arena_compactions"), "count");

  // cache
  const double lookups = c("gamma_cache_hits") + c("gamma_cache_misses");
  rep.set("cache.lookups", lookups, "count");
  rep.set("cache.hit_ratio", ratio(c("gamma_cache_hits"), lookups), "ratio");
  rep.set("cache.shared_hits", c("cache_shared_hits"), "count");
  rep.set("cache.staged", c("cache_entries_staged"), "count");
  rep.set("cache.flushed", c("cache_entries_flushed"), "count");
  rep.set("cache.evicted", c("cache_entries_evicted"), "count");
  rep.set("cache.store_nodes", g("cache_store_nodes"), "count");

  // obs
  rep.set("obs.trace_overhead_pct", d.overhead_pct, "%");
  rep.set("obs.spans", static_cast<double>(d.spans_recorded), "count");
  rep.set("obs.spans_dropped", static_cast<double>(d.spans_dropped), "count");

  if (d.spans_dropped > 0)
    rep.fail("trace: " + std::to_string(d.spans_dropped) + " spans dropped");
  const double self_sum = d.spans.net_self_ms_sum();
  const double tol = kClosureTolerance * d.net_ms_sum +
                     kClosureFloorMsPerNet * nets;
  if (d.net_ms_sum > 0.0 && std::abs(self_sum - d.net_ms_sum) > tol)
    rep.fail("trace: per-net span self times sum to " +
             std::to_string(self_sum) + " ms, flow.net_ms_sum is " +
             std::to_string(d.net_ms_sum) + " ms");
}

std::uint64_t deterministic_digest(const LayerData& d) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& [k, v] : d.counters) {
    if (clock_driven(k)) continue;
    h = fnv1a(k.data(), k.size(), h);
    h = fnv1a_pod(v, h);
  }
  for (const auto& [k, v] : d.gauges) {
    h = fnv1a(k.data(), k.size(), h);
    h = fnv1a_pod(v, h);
  }
  return h;
}

void run_traced_calls(const Options& opt, Report& rep, const TracedCalls& t) {
  double untraced_ms = 0.0;
  std::vector<std::uint64_t> digest;
  std::vector<merlin::BatchStatsDet> det;
  t.set_up();
  for (std::size_t i = 0; i < t.calls; ++i) {
    const std::uint64_t t0 = now_ns();
    const merlin::BatchResult r = t.call(i, nullptr);
    untraced_ms += static_cast<double>(now_ns() - t0) / 1e6;
    digest.push_back(merlin::batch_result_digest(r));
    det.push_back(r.stats.det);
  }

  LayerData d;
  BenchTrace trace;
  t.set_up();
  const std::int64_t root = trace.add("bench." + t.workload, now_ns(), 0);
  for (std::size_t i = 0; i < t.calls; ++i) {
    // One sink per call: span net ids are only unique within a run.
    merlin::ObsSink sink;
    sink.set_span_capacity(kSpanCapacity);
    const std::uint64_t t0 = now_ns();
    const merlin::BatchResult r = t.call(i, &sink);
    const std::uint64_t t1 = now_ns();
    trace.add(t.call_name, t0, t1, root, i);
    d.add_batch(r.stats, static_cast<double>(t1 - t0) / 1e6);
    d.add_sink(sink);
    if (!t.shared_pool || i + 1 == t.calls)
      d.add_pool(r.stats.steals, r.stats.worker_tasks);
    t.check(i, r);
    if (merlin::batch_result_digest(r) != digest[i] || !(r.stats.det == det[i]))
      rep.fail("traced call " + std::to_string(i) + " of " + t.workload +
               " differs from the untraced one in result digest or "
               "deterministic counts");
  }
  trace.close(root, now_ns());
  d.overhead_pct = (d.wall_ms / untraced_ms - 1.0) * 100.0;
  if (t.more_layers) t.more_layers(d, trace);
  trace.write_json(opt.work_dir + "/trace-" + t.workload + ".json");
  report_layers(d, rep);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "deterministic_counts=%016llx",
                static_cast<unsigned long long>(deterministic_digest(d)));
  rep.note(buf);
}

}  // namespace perfbench
