// In-memory span recorder for the benchmark's traced mode. Spans are opened
// and closed around the benchmark's own calls into the runtime's public
// functions (never inside the runtime), one track per rank plus one host
// track. Each track is written by exactly one thread, so recording takes no
// lock. When tracing is off a Span costs one branch on a plain bool.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace chaosbench {

/// Seconds on the steady clock since the benchmark's time origin (the spawn
/// instant the runner passes in, or main() entry).
double now_s();
/// Sets the time origin to @p origin_ns on the steady clock.
void set_origin_ns(std::int64_t origin_ns);
/// Current steady-clock reading in nanoseconds.
std::int64_t steady_ns();

struct SpanRec {
  const char* name = "";  ///< "<module>.<call>", a string literal
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< id of the enclosing span, -1 at top level
  double t0 = 0.0, t1 = 0.0;
};

class Tracer {
 public:
  /// @p tracks = ranks + 1; the last track is the host's.
  explicit Tracer(int tracks);

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] int tracks() const { return static_cast<int>(tracks_.size()); }
  [[nodiscard]] int host_track() const { return tracks() - 1; }

  /// Opens a span on @p track and returns its index there.
  std::size_t open(int track, const char* name);
  void close(int track, std::size_t index);
  /// Drops every recorded span (all spans must be closed).
  void clear();

  [[nodiscard]] const std::vector<SpanRec>& spans(int track) const {
    return tracks_[static_cast<std::size_t>(track)].spans;
  }

  /// Sum of span durations per span name on @p track.
  [[nodiscard]] std::map<std::string, double> totals(int track) const;
  /// Self time per module on @p track: each span's duration minus the part
  /// its direct children cover, summed by the name's module prefix.
  [[nodiscard]] std::map<std::string, double> self_by_module(int track) const;

  /// Appends every span of every track to @p events as Chrome trace-event
  /// JSON objects (complete events, microseconds); @p pid separates rounds.
  void append_chrome(std::vector<std::string>& events, int pid) const;

 private:
  struct Track {
    std::vector<SpanRec> spans;
    std::vector<std::size_t> open;  ///< stack of open span indices
  };
  bool enabled_ = false;
  std::vector<Track> tracks_;
};

/// RAII span: records [construction, destruction) on one track when the
/// tracer is enabled.
class Span {
 public:
  Span(Tracer& tracer, int track, const char* name)
      : tracer_(tracer.enabled() ? &tracer : nullptr), track_(track) {
    if (tracer_ != nullptr) index_ = tracer_->open(track, name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(track_, index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int track_;
  std::size_t index_ = 0;
};

/// Writes {"traceEvents": [...]} to @p path; returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<std::string>& events);

}  // namespace chaosbench
