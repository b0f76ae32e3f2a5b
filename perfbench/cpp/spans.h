// In-memory span recorder for the benchmark's traced run. A span is one
// call into a simulator layer, opened and closed by the benchmark's own
// code (or by a forwarding wrapper the benchmark installed), with a name, a
// start, an end and the span that was open when it started. Self time is a
// span's duration minus the time covered by its child spans.
//
// Every span is folded into per-name totals as it closes; the first
// `keep` spans are also retained verbatim and written as Chrome trace_event
// JSON when the benchmark exits, so the file stays small on long runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit SpanRecorder(std::size_t keep = 0) : keep_(keep) {}

  void open(const char* name) {
    std::int32_t kept = -1;
    if (kept_.size() < keep_) {
      kept = static_cast<std::int32_t>(kept_.size());
      kept_.push_back({name, 0, 0, stack_.empty() ? -1 : stack_.back().kept});
    }
    stack_.push_back({name, kept, now_ns(), 0});
  }

  void close() {
    const std::int64_t end = now_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end - f.start;
    Totals& t = totals_for(f.name);
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - f.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.kept >= 0) {
      kept_[static_cast<std::size_t>(f.kept)].start = f.start;
      kept_[static_cast<std::size_t>(f.kept)].end = end;
    }
  }

  /// Totals of every span closed under `name` (zeros when none was).
  Totals totals(const std::string& name) const {
    Totals sum;
    for (const auto& [n, t] : by_name_) {
      if (name != n) continue;
      sum.count += t.count;
      sum.total_ns += t.total_ns;
      sum.self_ns += t.self_ns;
    }
    return sum;
  }

  /// Chrome trace_event JSON of the retained spans (complete "X" events,
  /// microsecond timestamps relative to the first span; args.parent is the
  /// index of the enclosing span in traceEvents, -1 for a root).
  void write_chrome_json(std::ostream& os) const {
    const std::int64_t t0 = kept_.empty() ? 0 : kept_.front().start;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const Kept& k = kept_[i];
      if (i > 0) os << ",\n";
      os << "{\"name\":\"" << k.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
         << "\"ts\":" << static_cast<double>(k.start - t0) / 1000.0
         << ",\"dur\":" << static_cast<double>(k.end - k.start) / 1000.0
         << ",\"args\":{\"parent\":" << k.parent << "}}";
    }
    os << "]}\n";
  }

 private:
  struct Frame {
    const char* name;
    std::int32_t kept;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct Kept {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;
  };

  // Few distinct names (string literals), so a linear scan on the pointer
  // beats hashing on the hot path. One name may get several entries if its
  // literal is not merged across translation units; totals() sums them.
  Totals& totals_for(const char* name) {
    for (auto& [n, t] : by_name_)
      if (n == name) return t;
    by_name_.emplace_back(name, Totals{});
    return by_name_.back().second;
  }

  std::size_t keep_;
  std::vector<Frame> stack_;
  std::vector<Kept> kept_;
  std::vector<std::pair<const char*, Totals>> by_name_;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder records nothing.
class Span {
 public:
  Span(SpanRecorder* rec, const char* name) : rec_(rec) {
    if (rec_ != nullptr) rec_->open(name);
  }
  ~Span() {
    if (rec_ != nullptr) rec_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench
