// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the benchmark's own calls into knnpc's public API (nothing
// inside the library is instrumented). Each Tracer belongs to ONE thread;
// a thread that issues calls of its own (the open-loop query generator)
// gets its own Tracer and the owner merges it after joining the thread.
// A disabled Tracer records nothing: opening a span costs one branch.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace knnbench {

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  /// 0 = a root span.
  std::uint64_t parent = 0;
  /// Nanoseconds since the process-wide trace epoch.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  /// Numeric annotations: the stats the wrapped call returned.
  std::vector<std::pair<std::string, double>> args;

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
  /// Value of annotation `key`, or `fallback` when absent.
  [[nodiscard]] double arg(std::string_view key, double fallback = 0.0) const;
};

/// Nanoseconds since the trace epoch (steady clock).
std::int64_t trace_now_ns();

class Tracer {
 public:
  Tracer(bool enabled, std::uint32_t thread) noexcept
      : enabled_(enabled), thread_(thread) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// RAII span: opened by Tracer::span(), closed by its destructor.
  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&&) = delete;
    Span& operator=(Span&&) = delete;
    ~Span();

    /// Attaches a numeric annotation (no-op when tracing is off).
    void annotate(std::string_view key, double value);

   private:
    friend class Tracer;
    Span(Tracer* tracer, std::string_view name);
    Tracer* tracer_ = nullptr;  // null when disabled
    std::size_t index_ = 0;
  };

  [[nodiscard]] Span span(std::string_view name) { return Span(this, name); }

  /// Moves another thread's finished spans into this tracer.
  void absorb(Tracer& other);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

  /// Writes every span as Chrome trace-event JSON ("X" events, readable
  /// by Perfetto / chrome://tracing); `metadata_json` is a JSON object
  /// stored under the top-level "metadata" key.
  void write_chrome_json(const std::filesystem::path& path,
                         const std::string& metadata_json) const;

 private:
  bool enabled_;
  std::uint32_t thread_;
  std::vector<SpanRecord> spans_;
  /// Indices into spans_ of the spans currently open on this thread.
  std::vector<std::size_t> open_;
};

}  // namespace knnbench
