// big_net — closed loop, one caller.  The circuit triple of gen.h runs cold
// through BatchRunner::run with Flow III on every core, each circuit on a
// fresh SubproblemCache, then once more warm on the cache it filled.  One
// 8-10-sink net holds most of each cold run while the other workers idle,
// so the curve kernel and the core DP set cold_s here.

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

/// Everything a run needs before its first timed call.
struct State {
  merlin::BufferLibrary lib;
  BigNetInputs in;
  std::vector<std::unique_ptr<merlin::SubproblemCache>> caches;
  std::vector<std::unique_ptr<merlin::BatchContext>> contexts;
};

std::unique_ptr<State> set_up(const Options& opt) {
  auto st = std::make_unique<State>();
  st->lib = merlin::make_standard_library();
  st->in = make_big_net_inputs(st->lib, opt.seed);
  merlin::CacheConfig cc;
  cc.capacity_nodes = kBigNetCacheMb * 1024ull * 1024ull / sizeof(merlin::SolNode);
  for (std::size_t k = 0; k < st->in.circuits.size(); ++k) {
    st->caches.push_back(std::make_unique<merlin::SubproblemCache>(cc));
    st->contexts.push_back(std::make_unique<merlin::BatchContext>(
        opt.threads(), st->caches.back().get()));
  }
  return st;
}

merlin::BatchResult run_circuit(const State& st, std::size_t k,
                                merlin::ObsSink* sink) {
  merlin::BatchOptions bo;
  bo.flow = merlin::FlowKind::kFlow3;
  bo.context = st.contexts[k].get();
  bo.obs = sink;
  if (sink != nullptr) bo.guard.step_budget = kUntrippableStepBudget;
  return merlin::BatchRunner(st.lib, bo).run(st.in.circuits[k]);
}

}  // namespace

void run_big_net(const Options& opt, Report& rep) {
  {
    const merlin::BufferLibrary lib = merlin::make_standard_library();
    (void)check_generator(rep, opt.seed, [&](std::uint64_t s) {
      return digest(make_big_net_inputs(lib, s));
    });
  }
  std::unique_ptr<State> st;
  if (opt.trace) {
    TracedCalls t;
    t.workload = "big_net";
    t.call_name = "bench.run";
    t.calls = kBigNetCircuits;
    t.set_up = [&] { st = set_up(opt); };
    t.call = [&](std::size_t k, merlin::ObsSink* sink) {
      return run_circuit(*st, k, sink);
    };
    t.check = [&](std::size_t k, const merlin::BatchResult& r) {
      (void)check_circuit(r, st->in.circuits[k], st->lib, rep,
                          "traced " + st->in.circuits[k].name);
    };
    run_traced_calls(opt, rep, t);
    return;
  }

  // Set-up samples are the set-ups the run needs plus kSetupSamplesPerPass
  // throwaway ones after every warm rerun of the triple (see settings.h).  Each
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

  // Closed loop: whole cold reps (fresh caches) while another fits in the
  // run, then warm reruns of the triple on the last rep's caches for the
  // rest of it.
  const std::size_t n = st->in.circuits.size();
  std::vector<std::vector<double>> cold(n), warm(n);
  std::vector<double> circuit_ms;
  std::uint64_t digests = fnv1a(nullptr, 0);
  std::vector<std::uint64_t> cold_digest(n);
  double delay_ps = 0.0, buffer_area = 0.0;
  std::uint64_t ca_trees = 0, checked_nets = 0;
  const auto start = Clock::now();
  const auto warm_rerun = [&](std::size_t k) {
    const auto t0 = Clock::now();
    const merlin::BatchResult w = run_circuit(*st, k, nullptr);
    warm[k].push_back(seconds_since(t0));
    (void)check_circuit(w, st->in.circuits[k], st->lib, rep,
                        "warm " + st->in.circuits[k].name);
    if (merlin::batch_result_digest(w) != cold_digest[k])
      rep.fail("warm rerun of " + st->in.circuits[k].name +
               " changed the result digest");
  };
  for (int rep_i = 0;; ++rep_i) {
    const auto rep_t0 = Clock::now();
    if (rep_i > 0) {
      st.reset();
      st = timed_set_up();
    }
    for (std::size_t k = 0; k < n; ++k) {
      const auto t0 = Clock::now();
      const merlin::BatchResult r = run_circuit(*st, k, nullptr);
      cold[k].push_back(seconds_since(t0));
      circuit_ms.push_back(cold[k].back() * 1e3);
      const CheckTotals ct = check_circuit(r, st->in.circuits[k], st->lib, rep,
                                           "cold " + st->in.circuits[k].name);
      const std::uint64_t dg = merlin::batch_result_digest(r);
      if (rep_i == 0) {
        cold_digest[k] = dg;
        digests = fnv1a_pod(dg, digests);
        delay_ps += ct.delay_ps;
        buffer_area += ct.buffer_area;
        ca_trees += ct.ca_trees;
        checked_nets += ct.nets;
      } else if (dg != cold_digest[k]) {
        rep.fail("cold reps of " + st->in.circuits[k].name + " differ");
      }
      warm_rerun(k);
    }
    if (seconds_since(start) + seconds_since(rep_t0) > opt.seconds) break;
  }
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < n; ++k) warm_rerun(k);
    probe_set_ups();
    if (seconds_since(start) + seconds_since(t0) > opt.seconds) break;
  }

  double cold_s = 0.0, warm_s = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    cold_s += median(cold[k]);
    warm_s += median(warm[k]);
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "result_digest=%016llx reps=%zu ca_trees=%llu/%llu",
                static_cast<unsigned long long>(digests), cold[0].size(),
                static_cast<unsigned long long>(ca_trees),
                static_cast<unsigned long long>(checked_nets));
  rep.note(buf);
  rep.set("setup_s", median(setup_s), "s");
  rep.set("cold_s", cold_s, "s");
  rep.set("warm_s", warm_s, "s");
  // Latency of one operation here is one cold `merlin_cli --circuit` run.
  rep.set("lat_p50_ms", quantile(circuit_ms, 0.5), "ms");
  rep.set("lat_p95_ms", quantile(circuit_ms, 0.95), "ms");
  rep.set("peak_rss_mb", peak_rss_mb_self(), "MiB");
  rep.set("delay_ps", delay_ps, "ps");
  rep.set("buffer_area", buffer_area, "area");
}

}  // namespace perfbench
