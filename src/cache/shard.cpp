#include "cache/shard.h"

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

namespace merlin {

SubproblemCache::SubproblemCache(CacheConfig cfg) : cfg_(cfg) {}

bool SubproblemCache::lookup(const CacheKey& key, CacheEntry& out) const {
  if (!enabled()) return false;
  std::shared_lock lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  out = store_.get(it->second.id);  // deep copy under the shared lock
  return true;
}

CacheApplyOutcome SubproblemCache::apply(FlushBatch&& batch) {
  CacheApplyOutcome oc;
  oc.staged = batch.staged.size();
  if (!enabled()) return oc;
  std::unique_lock lock(mu_);

  const auto refresh = [this](const CacheKey& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return true;
  };

  // Touch refreshes first: a net that *used* an entry outranks the entries
  // it merely produced, so hot shared sub-problems survive eviction.
  for (const CacheKey& key : batch.touched) refresh(key);

  for (CacheEntry& entry : batch.staged) {
    const CacheKey key = entry.key;
    if (refresh(key)) {  // an earlier net already published this key
      ++oc.duplicates;
      continue;
    }
    if (entry.node_cost() > cfg_.capacity_nodes) {  // can never fit
      ++oc.rejected;
      continue;
    }
    lru_.push_front(key);
    Slot slot;
    slot.id = store_.put(std::move(entry));
    slot.lru_it = lru_.begin();
    map_.emplace(key, slot);
    ++oc.inserted;
    while (store_.node_cost() > cfg_.capacity_nodes) {
      const auto vit = map_.find(lru_.back());
      lru_.pop_back();
      store_.erase(vit->second.id);
      map_.erase(vit);
      ++oc.evicted;
    }
  }
  return oc;
}

std::size_t SubproblemCache::entry_count() const {
  std::shared_lock lock(mu_);
  return store_.entry_count();
}

std::uint64_t SubproblemCache::node_cost() const {
  std::shared_lock lock(mu_);
  return store_.node_cost();
}

void SubproblemCache::for_each_entry_oldest_first(
    const std::function<void(const CacheEntry&)>& fn) const {
  std::shared_lock lock(mu_);
  // lru front = most recent; walk back-to-front so the oldest entry is
  // reported (and later re-inserted) first.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it)
    fn(store_.get(map_.at(*it).id));
}

void SubproblemCache::clear() {
  std::unique_lock lock(mu_);
  map_.clear();
  store_.clear();
  lru_.clear();
}

bool cache_env_off() {
  const char* e = std::getenv("MERLIN_CACHE");
  return e != nullptr &&
         (std::strcmp(e, "off") == 0 || std::strcmp(e, "0") == 0);
}

const CacheEntry* CacheSession::find(const CacheKey& key, bool* shared_hit) {
  if (shared_hit != nullptr) *shared_hit = false;
  const auto it = map_.find(key);
  if (it != map_.end()) {
    ++hits_;
    return &entries_[it->second].entry;
  }
  if (shared_ != nullptr) {
    CacheEntry adopted;
    if (shared_->lookup(key, adopted)) {
      // Adopt: later finds of this key in the same run hit locally, and
      // take_flush will report the key touched (LRU refresh), not staged.
      const auto idx = static_cast<std::uint32_t>(entries_.size());
      entries_.push_back(LocalEntry{std::move(adopted), false});
      map_.emplace(key, idx);
      touched_.push_back(key);
      ++hits_;
      ++shared_hits_;
      if (shared_hit != nullptr) *shared_hit = true;
      return &entries_[idx].entry;
    }
  }
  ++misses_;
  return nullptr;
}

void CacheSession::insert(const CacheKey& key,
                          std::span<const SolutionCurve> curves,
                          const SolutionArena& arena) {
  const auto idx = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(LocalEntry{intern_entry(key, curves, arena), true});
  map_.insert_or_assign(key, idx);
}

void CacheSession::clear() {
  map_.clear();
  entries_.clear();
  touched_.clear();
  hits_ = 0;
  misses_ = 0;
  shared_hits_ = 0;
}

FlushBatch CacheSession::take_flush() {
  FlushBatch batch;
  batch.touched = std::move(touched_);
  if (shared_ != nullptr) {
    batch.staged.reserve(entries_.size());
    for (LocalEntry& le : entries_)
      if (le.publish) batch.staged.push_back(std::move(le.entry));
  }
  clear();
  return batch;
}

}  // namespace merlin
