#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace knnbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

/// Span ids are unique across every Tracer in the process.
std::atomic<std::uint64_t> g_next_id{1};

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

double SpanRecord::arg(std::string_view key, double fallback) const {
  for (const auto& [k, v] : args) {
    if (k == key) return v;
  }
  return fallback;
}

std::int64_t trace_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

Tracer::Span::Span(Tracer* tracer, std::string_view name) {
  if (!tracer->enabled_) return;
  tracer_ = tracer;
  SpanRecord record;
  record.name = std::string(name);
  record.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record.parent =
      tracer->open_.empty() ? 0 : tracer->spans_[tracer->open_.back()].id;
  record.thread = tracer->thread_;
  index_ = tracer->spans_.size();
  tracer->spans_.push_back(std::move(record));
  tracer->open_.push_back(index_);
  // Stamp last so the bookkeeping above is outside the measured interval.
  tracer->spans_[index_].start_ns = trace_now_ns();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = trace_now_ns();
  tracer_->open_.pop_back();
}

void Tracer::Span::annotate(std::string_view key, double value) {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].args.emplace_back(std::string(key), value);
}

void Tracer::absorb(Tracer& other) {
  if (!other.open_.empty()) {
    throw std::logic_error("absorbing a tracer with open spans");
  }
  spans_.insert(spans_.end(), std::make_move_iterator(other.spans_.begin()),
                std::make_move_iterator(other.spans_.end()));
  other.spans_.clear();
}

void Tracer::write_chrome_json(const std::filesystem::path& path,
                               const std::string& metadata_json) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << "{\"metadata\":" << metadata_json << ",\"traceEvents\":[";
  char number[64];
  bool first = true;
  for (const SpanRecord& s : spans_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread << ",\"name\":";
    write_json_string(out, s.name);
    std::snprintf(number, sizeof number, "%.3f",
                  static_cast<double>(s.start_ns) * 1e-3);
    out << ",\"ts\":" << number;
    std::snprintf(number, sizeof number, "%.3f",
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << ",\"dur\":" << number << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent;
    for (const auto& [key, value] : s.args) {
      std::snprintf(number, sizeof number, "%.17g", value);
      out << ',';
      write_json_string(out, key);
      out << ':' << number;
    }
    out << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("write failed: " + path.string());
}

}  // namespace knnbench
