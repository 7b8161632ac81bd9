#pragma once
// Solutions and their provenance.
//
// Every dynamic program in this library (PTREE, LTTREE, van Ginneken,
// *PTREE / BUBBLE_CONSTRUCT) summarizes a partially built buffered routing
// structure by the triple the paper propagates in its three-dimensional
// solution curves (Figure 8):
//
//   required time  — at the structure's root, before any upstream wire
//   load           — capacitance seen by whoever drives the root
//   area           — total buffer area inside the structure
//
// Under the Elmore delay model this summary is *exact*: the delay added by
// any upstream wire or driver depends on the subtree only through its root
// load, which is what makes the principle of dynamic programming [Be57]
// valid here (section I of the paper).
//
// Each solution additionally carries a provenance handle so the winning
// structure can be rebuilt by "following the pointers stored during the
// generation of the solution curves" (Figure 9, line 22).  Provenance nodes
// are plain-old-data records living in a SolutionArena (curve/arena.h) and
// are addressed by 32-bit SolNodeId handles rather than shared_ptr: the DP
// inner loops allocate one node per *surviving* candidate, and a bump
// allocator plus index handles keeps that path free of per-node heap
// traffic and refcount contention.

#include <cstdint>

#include "geom/point.h"

namespace merlin {

/// How a solution's structure was produced (extraction replays these).
enum class StepKind : std::uint8_t {
  kSink,    ///< root `at` connects by a direct wire to sink `idx`
  kWire,    ///< root `at` connects by a wire to child structure `a` (at a->at)
  kMerge,   ///< two structures `a`,`b` rooted at the same point `at`
  kBuffer,  ///< buffer `idx` at `at` drives structure `a` (rooted at `at`)
};

/// Handle of a provenance node inside a SolutionArena.
using SolNodeId = std::uint32_t;

/// The null handle (no provenance / unused child slot).
inline constexpr SolNodeId kNullSol = 0xFFFFFFFFu;

/// Immutable provenance node (POD).  Nodes form a DAG inside one arena:
/// pruning drops handles, shared sub-structures (the paper's Lemma 7
/// sharing) are referenced by several parents, and the arena frees its
/// nodes wholesale at reset().
struct SolNode {
  StepKind kind;
  std::int32_t idx;  ///< sink index (kSink) or library buffer index (kBuffer)
  Point at;          ///< root location of this structure
  double wire_width; ///< width multiplier of the wire this step lays down
                     ///< (kSink / kWire only; 1.0 = default width)
  SolNodeId a;       ///< first child structure (kNullSol for kSink)
  SolNodeId b;       ///< second child structure (kMerge only)
};

/// The shared curve-dominance tolerance.  Push-time tests
/// (Solution::dominated_by) and prune-time sweeps (SolutionCurve::prune) go
/// through the same predicate below so the epsilon cannot drift between
/// the two sides.
inline constexpr double kCurveEps = 1e-9;

/// Dominance per Definition 6 of the paper: `winner` dominates `loser` iff
/// it is no worse in all three curve dimensions.  Templated so the DP inner
/// loops can test not-yet-allocated candidate tuples (anything exposing
/// req_time/load/area) against stored Solutions with the identical rule.
template <typename W, typename L>
[[nodiscard]] inline bool dominates(const W& winner, const L& loser,
                                    double eps = kCurveEps) {
  return winner.load <= loser.load + eps && winner.area <= loser.area + eps &&
         winner.req_time >= loser.req_time - eps;
}

/// One point of a three-dimensional solution curve.
struct Solution {
  double req_time = 0.0;  ///< ps at the root (larger is better)
  double load = 0.0;      ///< fF at the root (smaller is better)
  double area = 0.0;      ///< total buffer area (smaller is better)
  double wirelen = 0.0;   ///< total wirelength in um (tie-breaker only)
  SolNodeId node = kNullSol;  ///< provenance handle (resolve in the arena
                              ///< that produced this solution)

  /// Dominance test per Definition 6: `*this` is inferior to (dominated by)
  /// `o`.  Wirelength is not part of the dominance relation (it is not one
  /// of the paper's curve dimensions); it only breaks exact ties in pruning.
  [[nodiscard]] bool dominated_by(const Solution& o, double eps = kCurveEps) const {
    return dominates(o, *this, eps);
  }
};

}  // namespace merlin
