#pragma once
// SolutionArena — bump-allocated storage for provenance SolNodes.
//
// The DP engines allocate provenance on their innermost loops (one node per
// surviving curve point, Lemma 10 bounds the points at O(nmq) per state).
// With shared_ptr provenance that meant a heap allocation plus atomic
// refcount traffic per node, multiplied across every worker of the batch
// engine.  The arena replaces it with the flat-pool/index-handle idiom:
//
//   * nodes live in fixed-size slabs (never reallocated, so references
//     handed out by operator[] stay valid across further allocation);
//   * a handle is a dense 32-bit index (SolNodeId) — half the size of a
//     pointer, trivially relocatable and serializable;
//   * freeing is wholesale: reset() between independent DP invocations.
//     One run arena holds every MERLIN iteration's committed survivors
//     until the next net resets it (only survivors reach it, so the dead
//     share is small and is never collected).
//
// Ownership rules (see docs/ARCHITECTURE.md):
//   * one arena per DP invocation — engines that take an optional arena use
//     a private local one when none is supplied;
//   * cached sub-problems do NOT pin the arena: the cache subsystem
//     (cache/store.h) copies survivor curves out into arena-independent
//     entries and clones them back in via make_node() on a hit, so arenas
//     and caches have fully independent lifetimes;
//   * arenas are single-threaded; the batch engine gives each pool worker
//     its own arena next to its CacheSession;
//   * an arena restarted at a first id above 0 is an *overlay* of the arena
//     whose ids lie below it: BUBBLE_CONSTRUCT's parallel groups each
//     allocate into a lane overlay while the run arena stays frozen, and
//     the run arena import()s the survivors when the layer commits.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "curve/solution.h"
#include "geom/point.h"

namespace merlin {

class SolutionArena {
 public:
  /// Nodes per slab.  Slabs are never reallocated or freed before the arena
  /// (reset() keeps them), so `&arena[id]` is stable across allocation.
  static constexpr std::size_t kSlabShift = 13;  // 8192 nodes, 512 KiB/slab
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabShift;
  static constexpr std::size_t kSlabMask = kSlabSize - 1;

  struct Stats {
    std::uint64_t nodes_allocated = 0;  ///< lifetime total (across resets)
    std::size_t live_nodes = 0;         ///< nodes since the last reset
    std::size_t peak_nodes = 0;         ///< high-water mark of live_nodes
    std::size_t reserved_bytes = 0;     ///< slab memory currently held
    std::size_t peak_bytes = 0;         ///< peak_nodes * sizeof(SolNode)
    std::uint64_t resets = 0;
  };

  SolutionArena() = default;
  SolutionArena(SolutionArena&&) = default;
  SolutionArena& operator=(SolutionArena&&) = default;
  SolutionArena(const SolutionArena&) = delete;
  SolutionArena& operator=(const SolutionArena&) = delete;

  // -- allocation (mirrors the old make_*_node free functions) --------------

  SolNodeId make_sink(Point at, std::int32_t sink_idx, double wire_width = 1.0) {
    return emplace(SolNode{StepKind::kSink, sink_idx, at, wire_width,
                           kNullSol, kNullSol});
  }
  SolNodeId make_wire(Point at, SolNodeId child, double wire_width = 1.0) {
    return emplace(SolNode{StepKind::kWire, -1, at, wire_width, child, kNullSol});
  }
  SolNodeId make_merge(Point at, SolNodeId l, SolNodeId r) {
    return emplace(SolNode{StepKind::kMerge, -1, at, 1.0, l, r});
  }
  SolNodeId make_buffer(Point at, std::int32_t buf_idx, SolNodeId child) {
    return emplace(SolNode{StepKind::kBuffer, buf_idx, at, 1.0, child, kNullSol});
  }
  /// Clones `n` verbatim — kind, idx, location, wire width and child
  /// handles, which must already be valid ids of THIS arena (or kNullSol).
  /// The cache subsystem uses it to materialize an arena-independent entry
  /// back into a run arena, child before parent (cache/store.h).
  SolNodeId make_node(const SolNode& n) { return emplace(n); }

  // -- access ----------------------------------------------------------------

  [[nodiscard]] const SolNode& operator[](SolNodeId id) const {
    const SolNodeId local = id - first_;
    return slabs_[local >> kSlabShift][local & kSlabMask];
  }
  /// Bounds-checked access; throws std::invalid_argument on kNullSol or an
  /// id this arena never handed out (the replay/extraction entry points use
  /// it so a stale handle fails loudly instead of reading freed memory).
  [[nodiscard]] const SolNode& at(SolNodeId id) const;

  /// Nodes held (ids first_id() .. end_id() - 1).
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool contains(SolNodeId id) const {
    return id >= first_ && id - first_ < size_;
  }
  /// First id this arena hands out (0 unless it is an overlay).
  [[nodiscard]] SolNodeId first_id() const { return first_; }
  /// The id the next allocation receives.
  [[nodiscard]] SolNodeId end_id() const {
    return static_cast<SolNodeId>(first_ + size_);
  }

  // -- wholesale reclamation -------------------------------------------------

  /// Drops every node but keeps slab capacity for reuse (the per-worker
  /// arenas of the batch engine call this between nets).  A `first_id`
  /// above 0 turns the arena into an overlay of a base arena holding ids
  /// [0, first_id): it hands out ids from `first_id` on, and its nodes may
  /// link to base nodes, which it never reads.
  void reset(SolNodeId first_id = 0);

  /// Copies into this (base) arena every node of `overlay` in the id range
  /// [from, to) that is reachable from `roots`, and returns the remap
  /// table: remap[id - from] is the node's new id here, or kNullSol for an
  /// unreachable id.  Roots outside the range are ignored, and links below
  /// overlay.first_id() are this arena's own nodes and pass through
  /// unchanged.  This arena may have grown past overlay.first_id() since
  /// the overlay was reset (earlier imports), so only the caller knows
  /// which of its handles are overlay handles; it remaps exactly those
  /// (SolutionCurve::remap_nodes(remap, from)).  The copy runs in
  /// ascending id order, so children land before parents and shared
  /// sub-DAGs stay shared (the paper's Lemma 7).  The range's nodes
  /// count as allocations of this arena, the copies do not: the overlay is
  /// this arena's staging area, and nodes_allocated stays the number of
  /// nodes the DP created, whichever arena held them first.
  std::vector<SolNodeId> import(const SolutionArena& overlay, SolNodeId from,
                                SolNodeId to, std::span<const SolNodeId> roots);

  /// This arena's overlay number `lane`, created on first use and kept —
  /// with its slab capacity — for the arena's lifetime (reset() leaves
  /// overlays alone; their user resets them).  BUBBLE_CONSTRUCT hands one
  /// to each compute lane, so a worker's scratch arena keeps its lanes'
  /// memory warm from net to net like its own.  The returned reference is
  /// stable; creating overlays is not thread-safe, using distinct ones is.
  SolutionArena& overlay(std::size_t lane);

  [[nodiscard]] Stats stats() const;

  // -- fault injection hook --------------------------------------------------

  /// Arms an injected allocation failure: the arena grants `grants` more
  /// allocations, then the next emplace throws std::length_error exactly as
  /// a genuine 32-bit handle overflow would (same type, so callers cannot
  /// special-case the drill).  The batch runner arms this per construction
  /// attempt — a per-net countdown, never a lifetime count, so the trip
  /// point is independent of which nets this worker's arena served before.
  void set_alloc_fault(std::uint64_t grants) {
    fault_armed_ = true;
    fault_grants_ = grants;
  }
  /// Disarms the injected failure (end of the guarded attempt).
  void clear_alloc_fault() { fault_armed_ = false; }

 private:
  SolNodeId emplace(SolNode n);
  [[nodiscard]] SolNode& slot(SolNodeId id) {
    const SolNodeId local = id - first_;
    return slabs_[local >> kSlabShift][local & kSlabMask];
  }

  std::vector<std::unique_ptr<SolNode[]>> slabs_;
  std::vector<std::unique_ptr<SolutionArena>> overlays_;  // see overlay()
  SolNodeId first_ = 0;        // id of the first node (overlays: above 0)
  std::size_t size_ = 0;       // nodes currently live (bump pointer)
  Stats stats_;                // live_nodes/reserved_bytes filled by stats()
  bool fault_armed_ = false;   // injected allocation failure (set_alloc_fault)
  std::uint64_t fault_grants_ = 0;
};

}  // namespace merlin
