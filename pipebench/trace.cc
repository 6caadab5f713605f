#include "pipebench/trace.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

namespace pipebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.run = run_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  span.parent = open_.empty() ? -1 : open_.back();
  const int32_t id = static_cast<int32_t>(spans_.size());
  open_.push_back(id);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::RecordChild(const char* name, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.run = run_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(span);
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, Tracer::LayerTime> Tracer::SelfTimeByLayer() const {
  std::vector<Span> spans = Snapshot();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                             span.end_ns);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    // Union of the children's intervals, clipped to this span: concurrent
    // children (drain-thread ingest under sim.run) may overlap each other.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_start = 0, cur_end = 0;
    bool open = false;
    for (auto [start, end] : kids) {
      start = std::max(start, span.start_ns);
      end = std::min(end, span.end_ns);
      if (end <= start) continue;
      if (open && start <= cur_end) {
        cur_end = std::max(cur_end, end);
        continue;
      }
      if (open) covered += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    }
    if (open) covered += cur_end - cur_start;
    const int64_t duration = span.end_ns - span.start_ns;
    std::string name = span.name;
    LayerTime& layer = layers[name.substr(0, name.find('.'))];
    ++layer.spans;
    layer.total_ms += static_cast<double>(duration) / 1e6;
    layer.self_ms += static_cast<double>(duration - covered) / 1e6;
  }
  return layers;
}

double Tracer::TotalMs(const std::string& name, uint64_t* count) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  uint64_t n = 0;
  for (const Span& span : spans_) {
    if (name == span.name) {
      total += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      ++n;
    }
  }
  if (count != nullptr) *count = n;
  return total;
}

std::string Tracer::ToJson() const {
  std::vector<Span> spans = Snapshot();
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::ostringstream out;
  out << "{\"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
        << span.name << "\", \"start_ns\": " << span.start_ns - origin
        << ", \"end_ns\": " << span.end_ns - origin
        << ", \"parent\": " << span.parent << ", \"run\": " << span.run << "}";
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace pipebench
