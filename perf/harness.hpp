#pragma once
// Plumbing shared by the benchmark workloads: order statistics, a small
// JSON writer, the benchmark's own span log, and the out-of-band coloring
// verifier. Nothing here calls into a timed region.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "coloring/verify.hpp"
#include "graph/oracles.hpp"
#include "pauli/pauli_set.hpp"

namespace picasso::perf {

// ---------------------------------------------------------------------------
// Order statistics.

/// Linearly interpolated quantile (numpy's default), q in [0, 1]; 0 for an
/// empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// ---------------------------------------------------------------------------
// JSON.

/// Shortest round-trip decimal form of `v` (every digit as measured).
inline std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Flat JSON object builder: fields appear in insertion order.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& integer(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += json_string(key) + ":" + json;
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// The benchmark's own spans.

/// Seconds since the first call in the process; every span shares this
/// epoch so logs of several threads merge onto one timeline.
inline double now_seconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

struct BenchSpan {
  const char* name = "";      // static string literal
  std::uint64_t id = 0;       // unique within the run
  std::uint64_t parent = 0;   // enclosing span, 0 = root
  std::uint64_t request = 0;  // the call this span belongs to, 0 = none
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Span log of one thread, kept in memory until the run writes it out.
/// Ids start at `id_base` so logs of different threads never collide.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t id_base = 1) : next_id_(id_base) {}

  std::uint64_t begin(const char* name, std::uint64_t request) {
    BenchSpan span;
    span.name = name;
    span.id = next_id_++;
    span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    span.request = request;
    span.start_s = now_seconds();
    open_.push_back(spans_.size());
    spans_.push_back(span);
    return span.id;
  }

  void end() {
    spans_[open_.back()].end_s = now_seconds();
    open_.pop_back();
  }

  const std::vector<BenchSpan>& spans() const noexcept { return spans_; }

 private:
  std::uint64_t next_id_;
  std::vector<BenchSpan> spans_;
  std::vector<std::size_t> open_;  // indices of spans not yet ended
};

/// RAII span; a null log (the untraced run) makes it a no-op.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, std::uint64_t request = 0)
      : log_(log) {
    if (log_ != nullptr) id_ = log_->begin(name, request);
  }
  ~SpanScope() {
    if (log_ != nullptr) log_->end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_ = 0;
};

inline std::string span_json(const BenchSpan& span) {
  return JsonObject()
      .str("kind", "bench")
      .str("name", span.name)
      .integer("id", span.id)
      .integer("parent", span.parent)
      .integer("request", span.request)
      .num("start_s", span.start_s)
      .num("end_s", span.end_s)
      .dump();
}

// ---------------------------------------------------------------------------
// Verification (always outside the timed region).

struct ColoringCheck {
  const pauli::PauliSet* set = nullptr;
  std::vector<std::uint32_t> colors;
};

/// Checks every coloring against the exact complement oracle on up to
/// `threads` threads; returns how many are invalid.
inline std::size_t count_invalid(const std::vector<ColoringCheck>& checks,
                                 unsigned threads) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> invalid{0};
  auto work = [&] {
    for (std::size_t i = next++; i < checks.size(); i = next++) {
      const graph::ComplementOracle oracle(*checks[i].set);
      if (!coloring::is_valid_coloring_oracle(
              oracle, std::span<const std::uint32_t>(checks[i].colors))) {
        ++invalid;
      }
    }
  };
  std::vector<std::thread> workers;
  const unsigned n = std::max(1u, std::min<unsigned>(
                                      threads, static_cast<unsigned>(
                                                   checks.size())));
  for (unsigned t = 1; t < n; ++t) workers.emplace_back(work);
  work();
  for (auto& w : workers) w.join();
  return invalid.load();
}

}  // namespace picasso::perf
