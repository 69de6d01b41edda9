// Span recorder for the traced benchmark run.
//
// The benchmark measures every layer from outside: it wraps calls into a
// layer's public functions in spans. A span carries a name, start, end,
// the span that was open on the same thread when it started (its
// parent) and a request id shared by all spans of one operation. Spans
// are kept in memory and written at exit as Chrome trace-event JSON
// (chrome://tracing and Perfetto open it).
//
// With tracing off a Span still measures its own duration but records
// nothing, so the timed phases run the same code traced or not.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] inline Clock::time_point after_seconds(Clock::time_point t,
                                                    double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

struct SpanRecord {
  std::string name;
  std::string detail;  // free-form argument, e.g. the layer name
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = top-level
  std::uint64_t request = 0;  // 0 = not part of a timed operation
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  [[nodiscard]] static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::uint64_t next_id();
  void record(SpanRecord span);
  [[nodiscard]] std::int64_t since_epoch_ns(Clock::time_point t) const;
  [[nodiscard]] std::size_t span_count() const;

  // Writes every recorded span as {"traceEvents": [...]} complete
  // ("ph": "X") events. Returns false if the file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  Tracer();
  bool enabled_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

// RAII span. stop() ends it early and returns its duration; the
// destructor stops a span that is still open.
class Span {
 public:
  explicit Span(std::string name, std::uint64_t request = 0,
                std::string detail = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double stop();  // milliseconds

 private:
  std::string name_;
  std::string detail_;
  std::uint64_t request_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Clock::time_point start_;
  double ms_ = 0.0;
  bool open_ = true;
};

// Times `fn` inside a span and returns the span's duration in ms.
template <typename Fn>
double timed(std::string name, Fn&& fn, std::string detail = {},
             std::uint64_t request = 0) {
  Span span(std::move(name), request, std::move(detail));
  fn();
  return span.stop();
}

}  // namespace perfbench
