#include "ptree/ptree.h"

#include <stdexcept>
#include <vector>

#include "runtime/guard.h"

namespace merlin {

void push_sink_wires(const Net& net, std::uint32_t sink, Point at,
                     std::span<const double> widths, SolutionArena& arena,
                     SolutionCurve& into) {
  const Sink& s = net.sinks[sink];
  const double len = static_cast<double>(manhattan(at, s.pos));
  for (const double width : widths) {
    const WireModel w = scaled_width(net.wire, width);
    Solution sol;
    sol.req_time = s.req_time - w.elmore_delay(len, s.load);
    sol.load = s.load + w.wire_cap(len);
    sol.wirelen = len;
    sol.node = arena.make_sink(at, static_cast<std::int32_t>(sink), width);
    into.push(std::move(sol));
    if (len == 0.0) break;  // widths indistinguishable at zero length
  }
}

void ptree_range_dp(const Net& net, const CandidateSet& cand,
                    std::span<const double> widths,
                    std::span<const PTreeTerminal> seq,
                    std::span<const std::span<const SolutionCurve>> children,
                    const PruneConfig& prune, NetGuard* guard,
                    SolutionArena& arena, PTreeScratch& scratch,
                    std::vector<SolutionCurve>& routed) {
  const std::size_t w = seq.size();
  const std::size_t k = cand.pts.size();
  const std::size_t need = w * (w + 1) / 2 * k;
  if (scratch.cells.size() < need) scratch.cells.resize(need);
  for (std::size_t c = 0; c < need; ++c) scratch.cells[c].clear();
  // State (i, j, p), 0 <= i <= j < w: row i of the triangle starts at
  // sum_{t<i} (w - t) = i*w - i(i-1)/2.
  const auto at = [&](std::size_t i, std::size_t j, std::size_t p) -> SolutionCurve& {
    return scratch.cells[(i * w - i * (i - 1) / 2 + (j - i)) * k + p];
  };

  // Base cases: a child row as given, a sink by a direct wire from each
  // candidate.
  for (std::size_t t = 0; t < w; ++t) {
    if (seq[t].is_child) {
      const auto& child_at = children[seq[t].child_slot];
      for (std::size_t p = 0; p < k; ++p) at(t, t, p) = child_at[p];
    } else {
      for (std::size_t p = 0; p < k; ++p) {
        SolutionCurve& cell = at(t, t, p);
        push_sink_wires(net, seq[t].sink, cand.pts[p], widths, arena, cell);
        cell.prune(prune);
      }
    }
  }

  // Ranges by increasing length: merges at each candidate, then the
  // extension relaxation.
  std::vector<MergeJob>& jobs = scratch.jobs;
  std::vector<const SolutionCurve*>& srcs = scratch.srcs;
  scratch.extended.resize(k);
  for (std::size_t len = 2; len <= w; ++len) {
    for (std::size_t i = 0; i + len <= w; ++i) {
      const std::size_t j = i + len - 1;
      // One DP step per (i, j) range, weighted by the candidate count the
      // range sweeps — the unit the step budget is calibrated against.
      guard_step(guard, k);
      for (std::size_t p = 0; p < k; ++p) {
        SolutionCurve& cell = at(i, j, p);
        jobs.clear();
        for (std::size_t u = i; u < j; ++u)
          jobs.push_back(MergeJob{&at(i, u, p), &at(u + 1, j, p)});
        // Fresh cell: push_merged_options output is already pruned with
        // this config, so no re-prune is needed.
        push_merged_options(arena, jobs, cand.pts[p], prune, cell);
      }
      // The relaxation reads the merge-only cells, so results are staged
      // and committed after the sweep.
      for (std::size_t p = 0; p < k; ++p) {
        SolutionCurve& ext = scratch.extended[p];
        ext.clear();
        const std::vector<std::uint32_t>& from = cand.sources[p];
        srcs.resize(from.size());
        scratch.src_pts.resize(from.size());
        for (std::size_t t = 0; t < from.size(); ++t) {
          srcs[t] = &at(i, j, from[t]);
          scratch.src_pts[t] = cand.pts[from[t]];
        }
        push_extended_options(arena, srcs, scratch.src_pts, cand.pts[p],
                              net.wire, prune, ext, widths);
      }
      for (std::size_t p = 0; p < k; ++p) {
        SolutionCurve& cell = at(i, j, p);
        for (const Solution& s : scratch.extended[p]) cell.push(s);
        cell.prune(prune);
      }
    }
  }

  routed.resize(k);
  for (std::size_t p = 0; p < k; ++p) {
    routed[p].clear();
    for (const Solution& s : at(0, w - 1, p)) routed[p].push(s);
  }
}

PTreeResult ptree_route(const Net& net, const Order& order,
                        const PTreeConfig& cfg_in, SolutionArena* arena_opt) {
  SolutionArena local_arena;
  SolutionArena& arena = arena_opt ? *arena_opt : local_arena;
  PTreeConfig cfg = cfg_in;
  if (cfg.prune.ref_res == 0.0)
    cfg.prune.ref_res = net.driver.delay.drive_res();
  if (cfg.prune.obs == nullptr) cfg.prune.obs = cfg.obs;
  obs_add(cfg.obs, Counter::kPtreeRuns);
  TraceSpan trace_span(cfg.obs, SpanName::kPtreeDp, net.fanout());
  guard_point(cfg.guard, FaultSite::kPtreeRange);
  const std::size_t n = net.fanout();
  if (n == 0) throw std::invalid_argument("ptree_route: net has no sinks");
  if (order.size() != n || !Order(order).valid())
    throw std::invalid_argument("ptree_route: order is not a permutation of the sinks");

  CandidateSet cand{candidate_locations(net.terminals(), cfg.candidates), {}};
  const std::size_t k = cand.pts.size();
  std::size_t source_p = k;
  for (std::size_t p = 0; p < k; ++p)
    if (cand.pts[p] == net.source) source_p = p;
  if (source_p == k)
    throw std::logic_error("candidate_locations must include the source");
  // Extensions into p start from every other candidate, in index order.
  cand.sources.resize(k);
  for (std::uint32_t p = 0; p < k; ++p)
    for (std::uint32_t p2 = 0; p2 < k; ++p2)
      if (p2 != p) cand.sources[p].push_back(p2);

  std::vector<PTreeTerminal> seq(n);
  for (std::size_t i = 0; i < n; ++i) seq[i].sink = order[i];
  PTreeScratch scratch;
  std::vector<SolutionCurve> routed;
  ptree_range_dp(net, cand, wire_widths_or_default(cfg.wire_widths), seq, {},
                 cfg.prune, cfg.guard, arena, scratch, routed);

  PTreeResult result;
  result.root_curve = std::move(routed[source_p]);
  // Pick the solution with the best required time at the driver input.
  const Solution* best = nullptr;
  double best_q = 0.0;
  for (const Solution& s : result.root_curve) {
    const double q = s.req_time - net.driver.delay.at_nominal(s.load);
    if (best == nullptr || q > best_q) {
      best = &s;
      best_q = q;
    }
  }
  if (best == nullptr) throw std::logic_error("ptree_route: empty final curve");
  result.chosen = *best;
  result.tree = build_routing_tree(net, arena, best->node);
  return result;
}

}  // namespace merlin
