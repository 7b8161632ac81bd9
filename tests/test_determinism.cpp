// Determinism and pruning-policy details: identical inputs must give
// bit-identical results (no hidden randomness, no iteration-order effects),
// and the cap keep-point rules of PruneConfig behave as documented.

#include <gtest/gtest.h>

#include "buflib/library.h"
#include "core/merlin.h"
#include "curve/curve.h"
#include "net/generator.h"
#include "order/tsp.h"
#include "ptree/ptree.h"

namespace merlin {
namespace {

TEST(Determinism, BubbleConstructIsBitStable) {
  const BufferLibrary lib = make_standard_library();
  NetSpec spec;
  spec.n_sinks = 7;
  spec.seed = 321;
  const Net net = make_random_net(spec, lib);
  BubbleConfig cfg;
  cfg.alpha = 3;
  cfg.candidates.budget_factor = 1.5;
  cfg.candidates.max_candidates = 14;
  cfg.inner_prune.max_solutions = 4;
  cfg.group_prune.max_solutions = 5;
  cfg.buffer_stride = 4;
  const BubbleResult a = bubble_construct(net, lib, tsp_order(net), cfg);
  const BubbleResult b = bubble_construct(net, lib, tsp_order(net), cfg);
  EXPECT_EQ(a.chosen.req_time, b.chosen.req_time);
  EXPECT_EQ(a.chosen.load, b.chosen.load);
  EXPECT_EQ(a.chosen.area, b.chosen.area);
  EXPECT_EQ(a.chosen.wirelen, b.chosen.wirelen);
  EXPECT_EQ(a.out_order, b.out_order);
  EXPECT_EQ(a.layer_calls, b.layer_calls);
  EXPECT_EQ(a.tree.size(), b.tree.size());
}

TEST(Determinism, MerlinIsBitStable) {
  const BufferLibrary lib = make_standard_library();
  NetSpec spec;
  spec.n_sinks = 6;
  spec.seed = 654;
  const Net net = make_random_net(spec, lib);
  MerlinConfig cfg;
  cfg.bubble.alpha = 3;
  cfg.bubble.candidates.budget_factor = 1.2;
  cfg.bubble.candidates.max_candidates = 12;
  cfg.bubble.inner_prune.max_solutions = 3;
  cfg.bubble.group_prune.max_solutions = 4;
  cfg.bubble.buffer_stride = 5;
  const MerlinResult a = merlin_optimize(net, lib, tsp_order(net), cfg);
  const MerlinResult b = merlin_optimize(net, lib, tsp_order(net), cfg);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.best.driver_req_time, b.best.driver_req_time);
  EXPECT_EQ(a.best.out_order, b.best.out_order);
}

TEST(Determinism, PTreeIsBitStable) {
  const BufferLibrary lib = make_standard_library();
  NetSpec spec;
  spec.n_sinks = 9;
  spec.seed = 987;
  const Net net = make_random_net(spec, lib);
  const PTreeResult a = ptree_route(net, tsp_order(net), {});
  const PTreeResult b = ptree_route(net, tsp_order(net), {});
  EXPECT_EQ(a.chosen.req_time, b.chosen.req_time);
  EXPECT_EQ(a.chosen.wirelen, b.chosen.wirelen);
  EXPECT_EQ(a.tree.size(), b.tree.size());
}

Solution sol(double rt, double load, double area) {
  Solution s;
  s.req_time = rt;
  s.load = load;
  s.area = area;
  return s;
}

TEST(PrunePolicy, RefResKeepsDriverPick) {
  // A big frontier where the point a mid-strength driver would pick is in
  // the middle: without ref_res a tight cap may drop it; with ref_res it
  // must survive.
  SolutionCurve c;
  for (int i = 0; i <= 20; ++i) {
    // rt grows with load sub-linearly after i=10: the scalarized optimum for
    // ref_res = 1 sits at the knee.
    const double load = 10.0 * i;
    const double rt = i <= 10 ? 20.0 * i : 200.0 + 2.0 * (i - 10);
    c.push(sol(rt, load, 100.0 - i));
  }
  PruneConfig cfg;
  cfg.max_solutions = 4;
  cfg.ref_res = 1.0;
  c.prune(cfg);
  // argmax(rt - load): i<=10: 20i-10i=10i -> i=10 (100); i>10: 200+2(i-10)-10i
  // decreasing -> best at i=10: rt=200, load=100.
  bool kept = false;
  for (const Solution& s : c)
    if (s.req_time == 200.0 && s.load == 100.0) kept = true;
  EXPECT_TRUE(kept);
}

TEST(PrunePolicy, CapOneKeepsBestReqTime) {
  SolutionCurve c;
  c.push(sol(100, 10, 0));
  c.push(sol(300, 40, 0));
  c.push(sol(200, 20, 0));
  PruneConfig cfg;
  cfg.max_solutions = 1;
  c.prune(cfg);
  ASSERT_GE(c.size(), 1u);
  double best = 0;
  for (const Solution& s : c) best = std::max(best, s.req_time);
  EXPECT_DOUBLE_EQ(best, 300.0);
}

}  // namespace
}  // namespace merlin
