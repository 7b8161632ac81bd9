#include "curve/arena.h"

#include <stdexcept>
#include <string>

namespace merlin {

const SolNode& SolutionArena::at(SolNodeId id) const {
  if (!contains(id))
    throw std::invalid_argument(
        id == kNullSol
            ? "SolutionArena: null provenance handle"
            : "SolutionArena: handle " + std::to_string(id) +
                  " out of range (arena holds " + std::to_string(size_) +
                  " nodes; was it produced by a different arena?)");
  return (*this)[id];
}

SolNodeId SolutionArena::emplace(SolNode n) {
  if (std::size_t{first_} + size_ >= kNullSol)
    throw std::length_error("SolutionArena: node count exceeds 32-bit handles");
  if (fault_armed_) {
    if (fault_grants_ == 0)
      throw std::length_error("SolutionArena: injected allocation failure");
    --fault_grants_;
  }
  const std::size_t slab = size_ >> kSlabShift;
  if (slab == slabs_.size())  // every slot is written before it is read
    slabs_.push_back(std::make_unique_for_overwrite<SolNode[]>(kSlabSize));
  const SolNodeId id = static_cast<SolNodeId>(first_ + size_++);
  slot(id) = n;
  ++stats_.nodes_allocated;
  if (size_ > stats_.peak_nodes) stats_.peak_nodes = size_;
  return id;
}

void SolutionArena::reset(SolNodeId first_id) {
  first_ = first_id;
  size_ = 0;
  ++stats_.resets;
}

std::vector<SolNodeId> SolutionArena::import(const SolutionArena& overlay,
                                             SolNodeId from, SolNodeId to,
                                             std::span<const SolNodeId> roots) {
  if (from < overlay.first_id() || to > overlay.end_id() || from > to)
    throw std::invalid_argument("SolutionArena::import: range outside the overlay");
  // Mark: DFS inside [from, to); links below the overlay are base nodes.
  const auto in_range = [&](SolNodeId id) {
    return id != kNullSol && id >= from && id < to;
  };
  std::vector<char> live(to - from, 0);
  std::vector<SolNodeId> stack;
  for (const SolNodeId r : roots) {
    if (!in_range(r) || live[r - from]) continue;
    live[r - from] = 1;
    stack.push_back(r);
    while (!stack.empty()) {
      const SolNode& n = overlay[stack.back()];
      stack.pop_back();
      for (const SolNodeId c : {n.a, n.b}) {
        if (in_range(c) && !live[c - from]) {
          live[c - from] = 1;
          stack.push_back(c);
        } else if (c != kNullSol && c >= overlay.first_id() && !in_range(c)) {
          throw std::invalid_argument(
              "SolutionArena::import: node links outside the imported range");
        }
      }
    }
  }
  // Copy in ascending id order: a child's remap entry is final before its
  // parent is copied (children are always allocated first).
  std::vector<SolNodeId> remap(to - from, kNullSol);
  std::uint64_t copies = 0;
  for (SolNodeId id = from; id < to; ++id) {
    if (!live[id - from]) continue;
    SolNode n = overlay[id];
    if (in_range(n.a)) n.a = remap[n.a - from];
    if (in_range(n.b)) n.b = remap[n.b - from];
    remap[id - from] = emplace(n);
    ++copies;
  }
  stats_.nodes_allocated += (to - from) - copies;
  return remap;
}

SolutionArena& SolutionArena::overlay(std::size_t lane) {
  while (overlays_.size() <= lane)
    overlays_.push_back(std::make_unique<SolutionArena>());
  return *overlays_[lane];
}

SolutionArena::Stats SolutionArena::stats() const {
  Stats s = stats_;
  s.live_nodes = size_;
  s.reserved_bytes = slabs_.size() * kSlabSize * sizeof(SolNode);
  s.peak_bytes = s.peak_nodes * sizeof(SolNode);
  return s;
}

}  // namespace merlin
