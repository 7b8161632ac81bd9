// many_nets — closed loop, one caller.  A list of small random nets runs
// through BatchRunner::run_nets on one BatchContext (every core, shared
// cache): a cold pass, then warm passes over the same list.  Every worker
// stays busy with short nets, so per-net fixed cost, pool scheduling, the
// serial reduce and cache publishing show; the warm passes turn the same
// code into cache reads with the kernel nearly idle.

#include <memory>

#include "buflib/library.h"
#include "cache/shard.h"
#include "check.h"
#include "common.h"
#include "curve/arena.h"
#include "flow/batch.h"
#include "gen.h"
#include "layers.h"
#include "settings.h"

namespace perfbench {

namespace {

struct State {
  merlin::BufferLibrary lib;
  std::vector<merlin::Net> nets;
  std::vector<const merlin::Net*> by_id;
  std::unique_ptr<merlin::SubproblemCache> cache;
  std::unique_ptr<merlin::BatchContext> context;
};

std::vector<merlin::Net> make_list(const merlin::BufferLibrary& lib,
                                   std::uint64_t seed) {
  return make_net_list(lib, kManyNetsBaseSeed, seed, kManyNetsCount,
                       kManyNetsMinSinks, kManyNetsMaxSinks, "n");
}

std::unique_ptr<State> set_up(const Options& opt) {
  auto st = std::make_unique<State>();
  st->lib = merlin::make_standard_library();
  st->nets = make_list(st->lib, opt.seed);
  for (const merlin::Net& n : st->nets) st->by_id.push_back(&n);
  merlin::CacheConfig cc;
  cc.capacity_nodes =
      kManyNetsCacheMb * 1024ull * 1024ull / sizeof(merlin::SolNode);
  st->cache = std::make_unique<merlin::SubproblemCache>(cc);
  st->context =
      std::make_unique<merlin::BatchContext>(opt.threads(), st->cache.get());
  return st;
}

merlin::BatchResult run_pass(const State& st, merlin::ObsSink* sink) {
  merlin::BatchOptions bo;
  bo.flow = merlin::FlowKind::kFlow3;
  bo.context = st.context.get();
  bo.obs = sink;
  if (sink != nullptr) bo.guard.step_budget = kUntrippableStepBudget;
  return merlin::BatchRunner(st.lib, bo).run_nets(st.nets);
}

}  // namespace

void run_many_nets(const Options& opt, Report& rep) {
  {
    const merlin::BufferLibrary lib = merlin::make_standard_library();
    (void)check_generator(rep, opt.seed, [&](std::uint64_t s) {
      return digest(make_list(lib, s));
    });
  }
  std::unique_ptr<State> st;
  if (opt.trace) {
    // A cold pass, then a warm pass on the cache it filled.
    TracedCalls t;
    t.workload = "many_nets";
    t.call_name = "bench.run_nets";
    t.calls = 2;
    t.shared_pool = true;
    t.set_up = [&] { st = set_up(opt); };
    t.call = [&](std::size_t, merlin::ObsSink* sink) {
      return run_pass(*st, sink);
    };
    t.check = [&](std::size_t pass, const merlin::BatchResult& r) {
      (void)check_batch(r, st->by_id, st->lib, rep,
                        pass == 0 ? "traced cold" : "traced warm");
    };
    // The serve layer has no workload of its own (its latencies drift too
    // far from run to run on a shared host), so it is measured here, after
    // the traced calls.
    t.more_layers = [&](LayerData& d, BenchTrace& trace) {
      probe_serve_layer(opt, rep, d, trace);
    };
    run_traced_calls(opt, rep, t);
    return;
  }

  // Set-up samples are the set-ups the run needs plus kSetupSamplesPerPass
  // throwaway ones after every warm pass (see settings.h).  Each
  // times set_up() alone, not the release of the state it replaces.
  std::vector<double> setup_s;
  const auto timed_set_up = [&] {
    const auto t0 = Clock::now();
    auto fresh = set_up(opt);
    setup_s.push_back(seconds_since(t0));
    return fresh;
  };
  const auto probe_set_ups = [&] {
    for (int i = 0; i < kSetupSamplesPerPass; ++i) (void)timed_set_up();
  };
  st = timed_set_up();

  // Closed loop: cycles of set-up, a cold pass and a warm pass while
  // another fits in the run, then more warm passes for the rest of it.
  std::vector<double> cold, warm, net_ms;
  double delay_ps = 0.0, buffer_area = 0.0;
  std::uint64_t cold_digest = 0, ca_trees = 0;
  const auto start = Clock::now();
  const auto warm_pass = [&] {
    const auto t0 = Clock::now();
    const merlin::BatchResult wr = run_pass(*st, nullptr);
    warm.push_back(seconds_since(t0));
    (void)check_batch(wr, st->by_id, st->lib, rep, "warm pass");
    if (merlin::batch_result_digest(wr) != cold_digest)
      rep.fail("warm pass digest differs from the cold pass digest");
  };
  for (int cycle = 0;; ++cycle) {
    const auto cycle_t0 = Clock::now();
    if (cycle > 0) {
      st.reset();
      st = timed_set_up();
    }
    const auto t0 = Clock::now();
    const merlin::BatchResult r = run_pass(*st, nullptr);
    cold.push_back(seconds_since(t0));
    const CheckTotals ct = check_batch(r, st->by_id, st->lib, rep, "cold pass");
    const std::uint64_t dg = merlin::batch_result_digest(r);
    if (cycle == 0) {
      cold_digest = dg;
      delay_ps = ct.delay_ps;
      buffer_area = ct.buffer_area;
      ca_trees = ct.ca_trees;
    } else if (dg != cold_digest) {
      rep.fail("cold passes over the same list differ in result digest");
    }
    for (const merlin::BatchNetResult& nr : r.nets) net_ms.push_back(nr.wall_ms);
    warm_pass();
    if (seconds_since(start) + seconds_since(cycle_t0) > opt.seconds) break;
  }
  for (;;) {
    const auto t0 = Clock::now();
    warm_pass();
    probe_set_ups();
    if (seconds_since(start) + seconds_since(t0) > opt.seconds) break;
  }

  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "result_digest=%016llx cycles=%zu ca_trees=%llu/%zu",
                static_cast<unsigned long long>(cold_digest), cold.size(),
                static_cast<unsigned long long>(ca_trees), st->nets.size());
  rep.note(buf);
  rep.set("setup_s", median(setup_s), "s");
  rep.set("cold_s", median(cold), "s");
  rep.set("warm_s", median(warm), "s");
  rep.set("lat_p50_ms", quantile(net_ms, 0.5), "ms");
  rep.set("lat_p95_ms", quantile(net_ms, 0.95), "ms");
  rep.set("peak_rss_mb", peak_rss_mb_self(), "MiB");
  rep.set("delay_ps", delay_ps, "ps");
  rep.set("buffer_area", buffer_area, "area");
}

}  // namespace perfbench
