// NetGuard semantics: step budgets, arena caps, deadlines, fault points —
// the per-net execution limits docs/ROBUSTNESS.md specifies.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "runtime/faultinject.h"
#include "runtime/guard.h"

namespace merlin {
namespace {

TEST(GuardConfig, DisabledByDefault) {
  GuardConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  cfg.step_budget = 1;
  EXPECT_TRUE(cfg.enabled());
  cfg = GuardConfig{};
  cfg.arena_node_cap = 1;
  EXPECT_TRUE(cfg.enabled());
  cfg = GuardConfig{};
  cfg.deadline_ms = 0.5;
  EXPECT_TRUE(cfg.enabled());
}

TEST(NetGuard, StepBudgetTripsExactlyPastTheBudget) {
  GuardConfig cfg;
  cfg.step_budget = 100;
  NetGuard g(7, cfg);
  EXPECT_NO_THROW(g.step(100));  // exactly at the budget: fine
  EXPECT_EQ(g.steps(), 100u);
  try {
    g.step(1);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_FALSE(e.arena_cap());
    EXPECT_NE(std::string(e.what()).find("net 7"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("step budget"), std::string::npos);
  }
}

TEST(NetGuard, BulkChargesCountTheirFullWeight) {
  GuardConfig cfg;
  cfg.step_budget = 10;
  NetGuard g(1, cfg);
  // One weighted charge past the budget trips immediately — engines charge
  // per-layer weights (w * k), not unit steps.
  EXPECT_THROW(g.step(11), BudgetExceeded);
}

TEST(NetGuard, UnlimitedGuardNeverTrips) {
  NetGuard g(3, GuardConfig{});
  for (int i = 0; i < 1000; ++i) g.step(1u << 20);
  g.arena_check(0xFFFFFFFFu);
  EXPECT_EQ(g.steps(), 1000ull << 20);
}

TEST(NetGuard, ArenaCapTripsAsBudgetExceededWithArenaFlag) {
  GuardConfig cfg;
  cfg.arena_node_cap = 50;
  NetGuard g(9, cfg);
  EXPECT_NO_THROW(g.arena_check(50));
  try {
    g.arena_check(51);
    FAIL() << "expected BudgetExceeded(arena)";
  } catch (const BudgetExceeded& e) {
    EXPECT_TRUE(e.arena_cap());
    EXPECT_NE(std::string(e.what()).find("arena node cap"), std::string::npos);
  }
}

TEST(NetGuard, DeadlineTripsAfterItExpires) {
  GuardConfig cfg;
  cfg.deadline_ms = 5.0;
  NetGuard g(2, cfg);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  // The deadline is polled every 256 step() calls; enough steps guarantee at
  // least one poll lands after expiry.
  EXPECT_THROW(
      {
        for (int i = 0; i < 1024; ++i) g.step();
      },
      DeadlineExceeded);
}

TEST(NetGuard, PollDeadlineChecksTheClockOnEveryCall) {
  // The parallel groups of a BUBBLE_CONSTRUCT layer charge no steps, so
  // they poll the deadline directly: no 256-call stride, no counting.
  GuardConfig cfg;
  cfg.deadline_ms = 5.0;
  const NetGuard g(4, cfg);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_THROW(g.poll_deadline(), DeadlineExceeded);
  EXPECT_THROW(guard_deadline(&g), DeadlineExceeded);
  EXPECT_EQ(g.steps(), 0u);
  cfg.deadline_ms = 60'000.0;
  EXPECT_NO_THROW(NetGuard(4, cfg).poll_deadline());
  EXPECT_NO_THROW(NetGuard(4, GuardConfig{}).poll_deadline());
  EXPECT_NO_THROW(guard_deadline(nullptr));
}

TEST(NetGuard, GuardErrorsShareOneCatchableBase) {
  GuardConfig cfg;
  cfg.step_budget = 1;
  NetGuard g(0, cfg);
  try {
    g.step(2);
    FAIL();
  } catch (const GuardError&) {
    SUCCEED();  // batch workers catch the base; classification is dynamic
  }
}

TEST(NetGuard, NullSafeHelpersAreNoOps) {
  EXPECT_NO_THROW(guard_step(nullptr, 1u << 30));
  EXPECT_NO_THROW(guard_arena(nullptr, 0xFFFFFFFFu));
  EXPECT_NO_THROW(guard_point(nullptr, FaultSite::kBubbleLayer));
}

TEST(NetGuard, ThrowFaultFiresAtMostOncePerSitePerAttempt) {
  FaultPlan plan;
  plan.kind = FaultKind::kThrow;
  plan.rate = 1.0;  // always fire
  plan.seed = 42;
  const FaultInjector inject(plan);
  NetGuard g(5, GuardConfig{}, &inject);
  EXPECT_THROW(g.fault_point(FaultSite::kBubbleLayer), FaultInjected);
  EXPECT_EQ(g.injected_fired(), 1u);
  // Same site again in the same attempt: already fired, stays quiet.
  EXPECT_NO_THROW(g.fault_point(FaultSite::kBubbleLayer));
  EXPECT_EQ(g.injected_fired(), 1u);
  // A different site is an independent decision.
  EXPECT_THROW(g.fault_point(FaultSite::kPtreeRange), FaultInjected);
  EXPECT_EQ(g.injected_fired(), 2u);
  // A fresh guard (new attempt) re-fires.
  NetGuard g2(5, GuardConfig{}, &inject);
  EXPECT_THROW(g2.fault_point(FaultSite::kBubbleLayer), FaultInjected);
}

TEST(NetGuard, SiteFilterRestrictsFiring) {
  FaultPlan plan;
  plan.kind = FaultKind::kThrow;
  plan.rate = 1.0;
  plan.seed = 1;
  plan.site = FaultSite::kLttreeLevel;
  const FaultInjector inject(plan);
  NetGuard g(11, GuardConfig{}, &inject);
  EXPECT_NO_THROW(g.fault_point(FaultSite::kBubbleLayer));
  EXPECT_NO_THROW(g.fault_point(FaultSite::kBatchNet));
  EXPECT_THROW(g.fault_point(FaultSite::kLttreeLevel), FaultInjected);
}

TEST(NetGuard, SlowFaultChargesTheGuardDeterministically) {
  FaultPlan plan;
  plan.kind = FaultKind::kSlow;
  plan.rate = 1.0;
  plan.seed = 3;
  plan.slow_penalty_steps = 500;
  const FaultInjector inject(plan);
  GuardConfig cfg;
  cfg.step_budget = 400;  // below the penalty: the injected slowness trips it
  NetGuard g(6, cfg, &inject);
  EXPECT_THROW(g.fault_point(FaultSite::kVanginNode), BudgetExceeded);
  EXPECT_EQ(g.injected_fired(), 1u);
  // Without a budget the same firing just charges steps.
  NetGuard g2(6, GuardConfig{}, &inject);
  EXPECT_NO_THROW(g2.fault_point(FaultSite::kVanginNode));
  EXPECT_EQ(g2.steps(), 500u);
}

TEST(NetStatusNames, AreTheDocumentedStrings) {
  EXPECT_STREQ(net_status_name(NetStatus::kOk), "ok");
  EXPECT_STREQ(net_status_name(NetStatus::kDegraded), "degraded");
  EXPECT_STREQ(net_status_name(NetStatus::kFailed), "failed");
  EXPECT_STREQ(net_status_name(NetStatus::kOverBudget), "over_budget");
  EXPECT_STREQ(net_status_name(NetStatus::kDeadline), "deadline");
}

}  // namespace
}  // namespace merlin
