#include "trace.hpp"

#include <fstream>

#include "util.hpp"

namespace perfbench {
namespace {

// Innermost open span of the calling thread (the parent of the next).
thread_local std::uint64_t t_open_span = 0;

std::uint32_t thread_number() {
  static std::mutex mu;
  static std::uint32_t next = 1;
  thread_local std::uint32_t mine = 0;
  if (mine == 0) {
    std::lock_guard<std::mutex> lock(mu);
    mine = next++;
  }
  return mine;
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::int64_t Tracer::since_epoch_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool first = true;
    for (const SpanRecord& s : spans_) {
      if (!first) out += ",\n";
      first = false;
      out += "{\"name\": " + json_string(s.name) +
             ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(s.thread) +
             ", \"ts\": " + std::to_string(static_cast<double>(s.start_ns) / 1e3) +
             ", \"dur\": " +
             std::to_string(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
             ", \"args\": {\"id\": " + std::to_string(s.id) +
             ", \"parent\": " + std::to_string(s.parent) +
             ", \"request\": " + std::to_string(s.request);
      if (!s.detail.empty()) {
        out += ", \"detail\": " + json_string(s.detail);
      }
      out += "}}";
    }
  }
  out += "\n]}\n";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << out;
  return static_cast<bool>(f);
}

Span::Span(std::string name, std::uint64_t request, std::string detail)
    : name_(std::move(name)), detail_(std::move(detail)), request_(request) {
  Tracer& tracer = Tracer::instance();
  if (tracer.enabled()) {
    id_ = tracer.next_id();
    parent_ = t_open_span;
    t_open_span = id_;
  }
  start_ = Clock::now();
}

Span::~Span() {
  if (open_) stop();
}

double Span::stop() {
  if (!open_) return ms_;
  const Clock::time_point end = Clock::now();
  open_ = false;
  ms_ = ms_between(start_, end);
  if (id_ != 0) {
    Tracer& tracer = Tracer::instance();
    t_open_span = parent_;
    SpanRecord rec;
    rec.name = std::move(name_);
    rec.detail = std::move(detail_);
    rec.start_ns = tracer.since_epoch_ns(start_);
    rec.end_ns = tracer.since_epoch_ns(end);
    rec.id = id_;
    rec.parent = parent_;
    rec.request = request_;
    rec.thread = thread_number();
    tracer.record(std::move(rec));
  }
  return ms_;
}

}  // namespace perfbench
