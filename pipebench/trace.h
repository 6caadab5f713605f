// In-memory span recorder for the benchmark's traced run.
//
// A span marks one call the benchmark makes into a module's public API:
// name ("<layer>.<call>"), start, end, the span that was open around it,
// and the run id of the operation (epoch, check or refresh) it belongs to.
// Spans stay in memory and are written out as JSON when the run ends.
// Recording is thread-safe: the daemon's overflow handler records its
// spans from the drain thread while the main thread holds a sim.run span
// open, and those spans name that span as their parent.

#ifndef PIPEBENCH_TRACE_H_
#define PIPEBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pipebench {

int64_t NowNs();

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the enclosing span, -1 for a root
  uint32_t run = 0;
};

class Tracer {
 public:
  // A disabled tracer records nothing; Begin returns -1.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_run(uint32_t run) { run_.store(run, std::memory_order_relaxed); }

  // Opens a span on the calling (main) thread; nests under the span the
  // main thread has open.
  int32_t Begin(const char* name);
  void End(int32_t id);
  // Records a finished span from any thread under the main thread's open
  // span (the overflow handler's spans).
  void RecordChild(const char* name, int64_t start_ns, int64_t end_ns);

  std::vector<Span> Snapshot() const;

  // Per-layer self time: each span's duration minus the part of it that
  // its child spans cover, summed by layer (the name up to the first '.').
  struct LayerTime {
    uint64_t spans = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, LayerTime> SelfTimeByLayer() const;

  // Sum of the durations of every span called `name`, and their count.
  double TotalMs(const std::string& name, uint64_t* count = nullptr) const;

  std::string ToJson() const;

 private:
  const bool enabled_;
  std::atomic<uint32_t> run_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;    // guarded by mu_
  std::vector<int32_t> open_;  // main-thread stack of open span ids; mu_
};

// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace pipebench

#endif  // PIPEBENCH_TRACE_H_
