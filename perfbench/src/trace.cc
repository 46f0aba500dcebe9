#include "trace.h"

#include <cstdio>

namespace perfbench {

std::map<std::string, double> SelfTimes(
    const std::vector<const TraceBuffer*>& buffers) {
  std::map<std::string, double> out;
  for (const TraceBuffer* b : buffers) {
    const std::vector<Span>& spans = b->spans();
    // Children of one span run one after another, so the time they cover
    // is the sum of their durations.
    std::vector<double> child_ms(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      out[spans[i].name] +=
          spans[i].end_ms - spans[i].start_ms - child_ms[i];
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const TraceBuffer*>& buffers) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t session = 0; session < buffers.size(); ++session) {
    const std::vector<Span>& spans = buffers[session]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"session\": %zu, \"span\": %zu, \"parent\": %d, "
                   "\"query\": %llu, \"name\": \"%s\", \"start_ms\": %.6f, "
                   "\"end_ms\": %.6f}\n",
                   session, i, s.parent,
                   static_cast<unsigned long long>(s.query_id), s.name,
                   s.start_ms, s.end_ms);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
