//===----------------------------------------------------------------------===//
///
/// \file
/// Structured trace spans: scoped RAII timing of pipeline stages, loop
/// passes, decode, fuzz cases and serve requests, recorded into a bounded
/// in-memory ring buffer and drained to Chrome `trace_event`-format JSON
/// (the format chrome://tracing and https://ui.perfetto.dev load
/// directly).
///
/// Recording is off by default: a disabled `TraceSpan` is two relaxed
/// atomic loads and no allocation, so spans are safe to leave in hot-ish
/// paths permanently. Enable via `TraceRecorder::global().setEnabled(true)`
/// — the `--trace-out FILE` tool flags do exactly that.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_OBS_TRACE_H
#define HELIX_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace helix {

class Json;

namespace obs {

/// One completed span. Times are microseconds on the steady clock,
/// relative to process start (Chrome's viewer only cares about relative
/// ts values).
struct TraceEvent {
  std::string Name;
  std::string Cat;
  uint32_t Tid = 0;
  uint64_t StartMicros = 0;
  uint64_t DurMicros = 0;
};

/// Bounded ring buffer of trace events. When full, the oldest event is
/// overwritten and `droppedCount` grows — a long fuzz campaign can't eat
/// the heap. All methods are thread-safe.
class TraceRecorder {
public:
  static TraceRecorder &global();

  explicit TraceRecorder(size_t Capacity = 1 << 16);

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  void record(TraceEvent E);

  /// Removes and returns all buffered events, oldest first.
  std::vector<TraceEvent> drain();

  /// Drains into `{"traceEvents":[...],"displayTimeUnit":"ms"}` with one
  /// `"ph":"X"` complete event per span (plus `"droppedEvents"` when the
  /// ring wrapped).
  Json drainToChromeJson();

  /// Drains to \p Path as one JSON document. Returns false (and sets
  /// \p Err) when the file can't be written.
  bool drainToFile(const std::string &Path, std::string *Err = nullptr);

  uint64_t droppedCount() const {
    return Dropped.load(std::memory_order_relaxed);
  }

  /// Microseconds since process start on the steady clock.
  static uint64_t nowMicros();
  /// Small dense id for the calling thread (1, 2, ... in first-use order).
  static uint32_t currentThreadId();

private:
  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> Dropped{0};
  mutable std::mutex M;
  std::vector<TraceEvent> Ring; // capacity-bounded
  size_t Head = 0;              // next write position once the ring is full
  size_t Capacity;
};

/// RAII span: measures construction-to-destruction on the recorder. The
/// enabled check happens at construction; a span that began while tracing
/// was on records even if tracing is switched off mid-span (cheap, and
/// keeps drain order sane).
class TraceSpan {
public:
  TraceSpan(std::string Name, const char *Cat,
            TraceRecorder &R = TraceRecorder::global());
  ~TraceSpan();

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  TraceRecorder *Rec = nullptr; // null when disabled at construction
  std::string Name;
  const char *Cat = "";
  uint64_t Start = 0;
};

} // namespace obs
} // namespace helix

#endif // HELIX_OBS_TRACE_H
