// Intra-net parallelism, enforced: BUBBLE_CONSTRUCT forks the groups of
// each DP layer onto the batch pool (plan / compute / commit), and nothing a
// caller can observe may depend on it.  One Flow III net of >= 8 sinks runs
// at 1, 2, 4 and 8 threads, with the shared cache on and off and with a
// step budget that trips mid-construction; the result digest and every
// deterministic stats section must be identical across thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "buflib/library.h"
#include "cache/shard.h"
#include "core/bubble.h"
#include "flow/batch.h"
#include "flow/flows.h"
#include "net/generator.h"
#include "obs/json.h"
#include "obs/sink.h"
#include "order/tsp.h"
#include "runtime/faultinject.h"
#include "runtime/guard.h"
#include "runtime/pool.h"

namespace merlin {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

// Small DP budgets keep the 9-sink net to a fraction of a second per run
// while leaving every layer with several groups to fork.
FlowConfig cheap_cfg() {
  FlowConfig cfg;
  cfg.candidates.policy = CandidatePolicy::kReducedHanan;
  cfg.candidates.budget_factor = 1.0;
  cfg.candidates.max_candidates = 12;
  cfg.merlin.bubble.alpha = 3;
  cfg.merlin.bubble.inner_prune.max_solutions = 3;
  cfg.merlin.bubble.group_prune.max_solutions = 4;
  cfg.merlin.bubble.buffer_stride = 4;
  cfg.merlin.bubble.extension_neighbors = 4;
  cfg.merlin.max_iterations = 3;
  return cfg;
}

Net big_net(const BufferLibrary& lib) {
  NetSpec spec;
  spec.name = "intranet9";
  spec.n_sinks = 9;
  spec.seed = 8;
  return make_random_net(spec, lib);
}

// Structural equality of two parsed JSON values, ignoring every `wall_us`
// member (the one wall-clock field of the deterministic sections).
bool same_json(const JsonValue& a, const JsonValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.boolean == b.boolean;
    case JsonValue::Kind::kNumber: return a.number == b.number;
    case JsonValue::Kind::kString: return a.string == b.string;
    case JsonValue::Kind::kArray:
      if (a.array.size() != b.array.size()) return false;
      for (std::size_t i = 0; i < a.array.size(); ++i)
        if (!same_json(a.array[i], b.array[i])) return false;
      return true;
    case JsonValue::Kind::kObject: {
      std::vector<std::string> ka, kb;
      for (const auto& [k, v] : a.object)
        if (k != "wall_us") ka.push_back(k);
      for (const auto& [k, v] : b.object)
        if (k != "wall_us") kb.push_back(k);
      if (ka != kb) return false;
      for (const std::string& k : ka)
        if (!same_json(a.at(k), b.at(k))) return false;
      return true;
    }
  }
  return false;
}

struct NetRun {
  BatchResult result;
  std::uint64_t digest = 0;
  JsonValue stats;
};

NetRun run_net(const BufferLibrary& lib, const Net& net, std::size_t threads,
               bool cache_on, std::uint64_t step_budget = 0) {
  SubproblemCache cache(CacheConfig{.capacity_nodes = cache_on ? 1u << 22 : 0});
  ObsSink sink;
  BatchOptions opts;
  opts.threads = threads;
  opts.flow = FlowKind::kFlow3;
  opts.scaled_config = false;
  opts.config = cheap_cfg();
  opts.cache = &cache;
  opts.obs = &sink;
  opts.fail_policy = FailPolicy::kSkip;
  opts.guard.step_budget = step_budget;
  NetRun r;
  r.result = BatchRunner(lib, opts).run_nets({net});
  r.digest = batch_result_digest(r.result);
  r.stats = json_parse(stats_to_json(sink));
  return r;
}

void expect_same_deterministic_sections(const NetRun& base, const NetRun& run,
                                        std::size_t threads) {
  EXPECT_EQ(base.digest, run.digest) << threads << " threads";
  for (const char* section : {"counters", "gauges", "layers", "cache", "nets"})
    EXPECT_TRUE(same_json(base.stats.at(section), run.stats.at(section)))
        << "section " << section << " diverged at " << threads << " threads";
}

TEST(IntraNetDifferential, ThreadCountsAgreeWithCacheOnAndOff) {
  const BufferLibrary lib = make_standard_library();
  const Net net = big_net(lib);
  ASSERT_GE(net.fanout(), 8u);
  for (const bool cache_on : {true, false}) {
    const NetRun base = run_net(lib, net, 1, cache_on);
    ASSERT_EQ(base.result.nets.size(), 1u);
    // Under the chaos harness's injection the net may fail before the DP;
    // the identity below must hold either way.
    if (FaultInjector::from_env() == nullptr) {
      EXPECT_EQ(base.result.nets[0].status, NetStatus::kOk);
      if (kObsEnabled) {
        EXPECT_GT(base.stats.at("counters").at("layer_calls").number, 0.0);
      }
    }
    for (const std::size_t threads : kThreadCounts) {
      if (threads == 1) continue;
      SCOPED_TRACE(cache_on ? "cache on" : "cache off");
      expect_same_deterministic_sections(base, run_net(lib, net, threads, cache_on),
                                         threads);
    }
  }
}

TEST(IntraNetDifferential, MidConstructionBudgetTripsIdentically) {
  const BufferLibrary lib = make_standard_library();
  const Net net = big_net(lib);
  // Every step the net needs (an unlimited guard counts them, obs or
  // not), then half of it: the trip lands inside BUBBLE_CONSTRUCT's layer
  // loop, where the groups fork.
  NetGuard counting(0, GuardConfig{});
  FlowConfig cfg = cheap_cfg();
  cfg.guard = &counting;
  (void)run_flow3(net, lib, cfg);
  const std::uint64_t steps = counting.steps();
  ASSERT_GT(steps, 2u);
  const NetRun base = run_net(lib, net, 1, true, steps / 2);
  const BatchNetResult& b = base.result.nets.at(0);
  if (FaultInjector::from_env() == nullptr) {
    EXPECT_EQ(b.status, NetStatus::kOverBudget);
    EXPECT_NE(b.error.find("step budget exceeded"), std::string::npos) << b.error;
  }
  for (const std::size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    const NetRun run = run_net(lib, net, threads, true, steps / 2);
    const BatchNetResult& r = run.result.nets.at(0);
    EXPECT_EQ(r.status, b.status) << threads << " threads";
    // The message carries the BudgetExceeded step count.
    EXPECT_EQ(r.error, b.error) << threads << " threads";
    expect_same_deterministic_sections(base, run, threads);
  }
}

TEST(IntraNetDifferential, BubbleConstructIgnoresThePool) {
  // Engine level: the same BUBBLE_CONSTRUCT with no pool and on a 4-worker
  // pool yields the same curve, tree, work counts and arena allocations.
  const BufferLibrary lib = make_standard_library();
  const Net net = big_net(lib);
  const Order order = tsp_order(net);
  BubbleConfig cfg = cheap_cfg().merlin.bubble;
  ThreadPool pool(4);
  ObsSink sinks[2];
  SolutionArena arenas[2];
  BubbleResult res[2];
  for (int i = 0; i < 2; ++i) {
    cfg.obs = &sinks[i];
    cfg.pool = i == 0 ? nullptr : &pool;
    res[i] = bubble_construct(net, lib, order, cfg, nullptr, &arenas[i]);
  }
  EXPECT_EQ(res[0].layer_calls, res[1].layer_calls);
  EXPECT_EQ(res[0].solutions_stored, res[1].solutions_stored);
  EXPECT_EQ(res[0].out_order, res[1].out_order);
  EXPECT_EQ(res[0].driver_req_time, res[1].driver_req_time);
  EXPECT_EQ(res[0].tree.size(), res[1].tree.size());
  ASSERT_EQ(res[0].root_curve.size(), res[1].root_curve.size());
  for (std::size_t j = 0; j < res[0].root_curve.size(); ++j) {
    EXPECT_EQ(res[0].root_curve[j].req_time, res[1].root_curve[j].req_time);
    EXPECT_EQ(res[0].root_curve[j].load, res[1].root_curve[j].load);
    EXPECT_EQ(res[0].root_curve[j].area, res[1].root_curve[j].area);
    // Commit imports in group order: even the run arena's ids agree.
    EXPECT_EQ(res[0].root_curve[j].node, res[1].root_curve[j].node);
  }
  EXPECT_EQ(sinks[0].counters, sinks[1].counters);
  EXPECT_EQ(sinks[0].gauges, sinks[1].gauges);
  EXPECT_EQ(sinks[0].layers(), sinks[1].layers());
  EXPECT_EQ(arenas[0].stats().nodes_allocated, arenas[1].stats().nodes_allocated);
  EXPECT_EQ(arenas[0].size(), arenas[1].size());
}

}  // namespace
}  // namespace merlin
