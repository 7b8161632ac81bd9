#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

#include "obs/trace.h"

namespace perfbench {

namespace {

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Length of the union of [begin, end) intervals.
std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t reach = 0;
  for (const auto& [b, e] : iv) {
    const std::uint64_t from = std::max(b, reach);
    if (e > from) total += e - from;
    reach = std::max(reach, e);
  }
  return total;
}

/// Self time of every span in `spans`, given each span's children.
std::vector<std::uint64_t> self_ns(
    const std::vector<std::uint64_t>& dur,
    const std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>& kids) {
  std::vector<std::uint64_t> out(dur.size());
  for (std::size_t i = 0; i < dur.size(); ++i) {
    const std::uint64_t c = covered_ns(kids[i]);
    out[i] = dur[i] > c ? dur[i] - c : 0;
  }
  return out;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::int64_t BenchTrace::add(const std::string& name, std::uint64_t begin_ns,
                             std::uint64_t end_ns, std::int64_t parent,
                             std::uint64_t arg) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, begin_ns, end_ns, parent, arg});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void BenchTrace::close(std::int64_t id, std::uint64_t end_ns) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_ns = end_ns;
}

std::vector<BenchSpan> BenchTrace::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

void BenchTrace::write_json(const std::string& path) const {
  const std::vector<BenchSpan> s = spans();
  std::uint64_t t0 = UINT64_MAX;
  for (const BenchSpan& b : s) t0 = std::min(t0, b.begin_ns);
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < s.size(); ++i) {
    // Depth as the track, so nested calls stack visibly.
    int depth = 0;
    for (std::int64_t p = s[i].parent; p >= 0;
         p = s[static_cast<std::size_t>(p)].parent)
      ++depth;
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s[i].name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << depth
        << ", \"ts\": " << static_cast<double>(s[i].begin_ns - t0) / 1e3
        << ", \"dur\": " << static_cast<double>(s[i].end_ns - s[i].begin_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s[i].parent
        << ", \"arg\": " << s[i].arg << "}}";
  }
  out << "\n]}\n";
}

void SpanTable::add_engine_spans(const std::vector<merlin::SpanRecord>& spans) {
  // Net-attributed spans close in per-net sequence order; the parent of a
  // span at depth d is the next span of the same net to close at depth
  // d - 1.  Group by net, walk in close order, and hand each closing span
  // the children collected at depth d + 1 since its siblings closed.
  std::vector<const merlin::SpanRecord*> net_spans;
  for (const merlin::SpanRecord& r : spans) {
    if (r.scheduling()) {
      SpanStat& st = by_name_[merlin::span_name(r.name)];
      ++st.count;
      st.total_ms += ns_to_ms(r.end_ns - r.begin_ns);
      st.self_ms += ns_to_ms(r.end_ns - r.begin_ns);
    } else {
      net_spans.push_back(&r);
    }
  }
  std::sort(net_spans.begin(), net_spans.end(),
            [](const merlin::SpanRecord* a, const merlin::SpanRecord* b) {
              return a->net_id != b->net_id ? a->net_id < b->net_id
                                            : a->seq < b->seq;
            });
  std::vector<std::uint64_t> dur(net_spans.size());
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      net_spans.size());
  std::vector<std::vector<std::size_t>> pending;  // by depth
  for (std::size_t i = 0; i < net_spans.size(); ++i) {
    const merlin::SpanRecord& r = *net_spans[i];
    if (i == 0 || net_spans[i - 1]->net_id != r.net_id) pending.clear();
    dur[i] = r.end_ns - r.begin_ns;
    const std::size_t d = r.depth;
    if (pending.size() < d + 2) pending.resize(d + 2);
    for (std::size_t c : pending[d + 1])
      kids[i].emplace_back(net_spans[c]->begin_ns, net_spans[c]->end_ns);
    pending[d + 1].clear();
    pending[d].push_back(i);
  }
  const std::vector<std::uint64_t> self = self_ns(dur, kids);
  for (std::size_t i = 0; i < net_spans.size(); ++i) {
    SpanStat& st = by_name_[merlin::span_name(net_spans[i]->name)];
    ++st.count;
    st.total_ms += ns_to_ms(dur[i]);
    st.self_ms += ns_to_ms(self[i]);
    net_self_ms_ += ns_to_ms(self[i]);
  }
}

SpanStat SpanTable::get(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? SpanStat{} : it->second;
}

}  // namespace perfbench
