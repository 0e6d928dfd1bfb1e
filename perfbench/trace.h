// perfbench -- in-memory span recorder for the traced benchmark run.
//
// Spans are recorded around the benchmark's own calls into each dbll module
// (never inside the library). Each thread appends to its own buffer; the
// whole trace is written once, at exit, as chrome://tracing JSON that
// scripts/validate_trace.py accepts. Disabled recording costs one relaxed
// load per scope.
//
// dbll::obs::Tracer is not reused: enabling it also records the library's
// own internal spans, which this benchmark must leave off.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 private:
  struct ThreadBuffer;

 public:
  struct Span {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t tid = 0;
    std::uint32_t depth = 0;
  };

  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// RAII span; a no-op while recording is off.
  class Scope {
   public:
    explicit Scope(const char* name) {
      Tracer& t = Tracer::Get();
      if (!t.enabled()) return;
      thread_ = &t.Local();
      span_.name = name;
      span_.tid = thread_->tid;
      span_.depth = thread_->depth++;
      span_.start_ns = NowNs();
    }
    ~Scope() {
      if (thread_ == nullptr) return;
      span_.dur_ns = NowNs() - span_.start_ns;
      --thread_->depth;
      thread_->spans.push_back(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadBuffer* thread_ = nullptr;
    Span span_;
  };

  /// Writes every recorded span as chrome trace-event JSON.
  bool Write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "{\"traceEvents\": [");
    bool first = true;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& t : threads_) {
      for (const Span& s : t->spans) {
        std::fprintf(file,
                     "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                     "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": "
                     "{\"depth\": %u}}",
                     first ? "" : ",", s.name,
                     static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.dur_ns) / 1e3, s.tid, s.depth);
        first = false;
      }
    }
    std::fprintf(file, "\n], \"displayTimeUnit\": \"ns\"}\n");
    return std::fclose(file) == 0;
  }

 private:
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::uint32_t depth = 0;
    std::vector<Span> spans;
  };

  ThreadBuffer& Local() {
    thread_local ThreadBuffer* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      threads_.push_back(std::make_unique<ThreadBuffer>());
      buffer = threads_.back().get();
      buffer->tid = static_cast<std::uint32_t>(threads_.size() - 1);
      buffer->spans.reserve(1 << 14);
    }
    return *buffer;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> threads_;
};

}  // namespace perfbench
