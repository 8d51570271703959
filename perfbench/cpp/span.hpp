// In-memory span recorder for the traced run.
//
// A span is one call into a simulator layer, recorded from outside the
// simulator: name, start, end and the span open around it (its parent).
// Spans nest by scope, so a layer's self time is its span's duration minus
// the time its child spans cover. Per-name totals are kept for every span;
// raw spans are kept up to a cap and written out when the run ends.
//
// Recording is off unless enable(true) is called: a Span then costs one
// branch, so the untraced run times the simulator alone.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Totals {
    const char* name = nullptr;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  static SpanRecorder& instance() {
    static SpanRecorder rec;
    return rec;
  }

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Drop every total and stored span (open spans must be closed first).
  void reset() {
    totals_.clear();
    spans_.clear();
    next_id_ = 0;
  }

  void begin(const char* name) {
    open_.push_back({name, now_ns(), 0, next_id_++,
                     open_.empty() ? -1 : open_.back().id});
  }

  void end() {
    const Open o = open_.back();
    open_.pop_back();
    const std::int64_t end = now_ns();
    const std::int64_t dur = end - o.start_ns;
    Totals& t = totals_for(o.name);
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - o.child_ns;
    if (!open_.empty()) open_.back().child_ns += dur;
    if (spans_.size() < kMaxStoredSpans) {
      spans_.push_back({o.name, o.start_ns, end, o.id, o.parent});
    }
  }

  /// Totals for the span name `name` (zeroed when it never ran).
  Totals totals(const char* name) const {
    for (const Totals& t : totals_) {
      if (t.name == name) return t;
    }
    return Totals{name, 0, 0, 0};
  }

  /// {"totals": [...], "spans": [[name, start, end, id, parent], ...]} with
  /// times in ns from the earliest stored span.
  void write_json(std::ostream& os) const {
    os << "{\"totals\": [";
    for (size_t i = 0; i < totals_.size(); ++i) {
      const Totals& t = totals_[i];
      os << (i ? ", " : "") << "{\"name\": \"" << t.name
         << "\", \"count\": " << t.count << ", \"total_ns\": " << t.total_ns
         << ", \"self_ns\": " << t.self_ns << "}";
    }
    os << "], \"spans_dropped\": " << (next_id_ - spans_.size())
       << ", \"spans\": [";
    std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Stored& s : spans_) base = std::min(base, s.start_ns);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Stored& s = spans_[i];
      os << (i ? ",\n" : "\n") << "[\"" << s.name << "\", "
         << s.start_ns - base << ", " << s.end_ns - base << ", " << s.id
         << ", " << s.parent << "]";
    }
    os << "]}";
  }

 private:
  static constexpr size_t kMaxStoredSpans = 200000;

  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t id;
    std::int64_t parent;
  };
  struct Stored {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t id;
    std::int64_t parent;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Span names are named constants, so a pointer compare finds them; the
  // list holds a few dozen names at most.
  Totals& totals_for(const char* name) {
    for (Totals& t : totals_) {
      if (t.name == name) return t;
    }
    totals_.push_back({name, 0, 0, 0});
    return totals_.back();
  }

  bool enabled_ = false;
  std::vector<Open> open_;
  std::vector<Totals> totals_;
  std::vector<Stored> spans_;
  std::int64_t next_id_ = 0;
};

/// Records one span over its scope when the recorder is enabled.
class Span {
 public:
  explicit Span(const char* name)
      : on_(SpanRecorder::instance().enabled()) {
    if (on_) SpanRecorder::instance().begin(name);
  }
  ~Span() {
    if (on_) SpanRecorder::instance().end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

}  // namespace perfbench
