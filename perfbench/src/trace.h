// In-memory span log for the traced run, plus the tiny JSON writer both
// benchmark programs use for their result files.
//
// A span has a name, a start and an end (microseconds on the benchmark's
// steady clock, relative to the run's origin), a parent span id (0 = root)
// and an optional key: per-op spans carry "session:seq", so every span of
// one op shares it.  Spans stay in memory until write_jsonl(), called once
// at exit, so recording costs a lock and a vector push.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  // Ids start at `first_id`, so logs of two programs can be concatenated.
  SpanLog(bool enabled, Clock::time_point origin, std::uint64_t first_id = 1)
      : enabled_(enabled), origin_(origin), first_id_(first_id),
        next_id_(first_id) {}

  bool enabled() const { return enabled_; }

  std::int64_t us(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - origin_)
        .count();
  }

  // Records a finished span and returns its id (0 when disabled).
  std::uint64_t add(std::string name, std::uint64_t parent,
                    Clock::time_point start, Clock::time_point end,
                    std::string key = {}) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(
        {next_id_, parent, std::move(name), us(start), us(end),
         std::move(key)});
    return next_id_++;
  }

  // Opens a span now; close it with end().  Returns 0 when disabled.
  std::uint64_t begin(std::string name, std::uint64_t parent = 0) {
    const auto now = Clock::now();
    return add(std::move(name), parent, now, now);
  }

  void end(std::uint64_t id) {
    if (!enabled_ || id == 0) return;
    const std::int64_t now = us(Clock::now());
    std::lock_guard<std::mutex> lk(mu_);
    spans_[id - first_id_].end_us = now;
  }

  // One span per line: [id, parent, "name", start_us, end_us, "key"].
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::string name;
    std::int64_t start_us;
    std::int64_t end_us;
    std::string key;
  };

  const bool enabled_;
  const Clock::time_point origin_;
  const std::uint64_t first_id_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_;
};

// Flat JSON object writer: enough for result files of numbers, strings,
// booleans and number arrays.
class JsonOut {
 public:
  void num(const std::string& k, double v);
  void integer(const std::string& k, std::int64_t v);
  void str(const std::string& k, const std::string& v);
  void boolean(const std::string& k, bool v);
  void nums(const std::string& k, const std::vector<double>& v);
  void strs(const std::string& k, const std::vector<std::string>& v);
  // A nested object, written by `body`.
  void object(const std::string& k, const JsonOut& body);
  std::string text() const { return "{" + body_ + "}"; }
  bool write(const std::string& path) const;

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_escape(const std::string& s);

}  // namespace perfbench
