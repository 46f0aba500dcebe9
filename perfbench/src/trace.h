#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Milliseconds on the monotonic clock.
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer. Spans of one query share `query_id`;
/// `parent` indexes the causing span in the same buffer (-1 for a root).
struct Span {
  uint64_t query_id = 0;
  int parent = -1;
  const char* name = "";
  double start_ms = 0;
  double end_ms = 0;
};

/// Spans of one session, kept in memory until the run ends.
class TraceBuffer {
 public:
  int Begin(uint64_t query_id, const char* name, int parent) {
    spans_.push_back(Span{query_id, parent, name, NowMs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Ends span `index` and returns its duration in milliseconds.
  double End(int index) {
    Span& s = spans_[static_cast<size_t>(index)];
    s.end_ms = NowMs();
    return s.end_ms - s.start_ms;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per span name, the summed self time in milliseconds: each span's
/// duration minus the time covered by its child spans.
std::map<std::string, double> SelfTimes(
    const std::vector<const TraceBuffer*>& buffers);

/// Writes every span as one JSON object per line.
bool WriteSpans(const std::string& path,
                const std::vector<const TraceBuffer*>& buffers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
