// Windowed (rolling-rate) telemetry: a rotating ring of time-bucketed
// LogHistogram+counter slices, plus an SLO monitor on top.
//
// The PR-6 metrics plane exports process-lifetime cumulative counters and
// histograms — fine for "how much since boot", useless for "how fast right
// now". A WindowedStats keeps the last `num_slices` × `slice_us` of
// traffic in a ring of slices (default 16 × 5 s = 80 s of history), each
// slice a LogHistogram plus request/error counters keyed by its absolute
// epoch (floor(unix_micros / slice_us)). Rolling 10 s / 1 m QPS, error
// rate, and latency quantiles fall out of summing the slices that overlap
// the trailing window.
//
// Mergeability is the same contract as HistogramSnapshot: slices are keyed
// by absolute wall-clock epoch (system_clock, so epochs line up across
// processes), and merging snapshots adds same-epoch slices bucket-by-
// bucket — integer adds, commutative and associative, bit-identical to a
// single recorder that saw all the traffic. The router merges backend
// windowed snapshots exactly like it merges latency histograms.
//
// Concurrency: record() is lock-free in the steady state (relaxed
// fetch_adds into the current slice); a slice boundary crossing takes that
// slot's rotate mutex once per slice_us to reset it for the new epoch.
// Records racing a rotation land on one side or the other of the slice
// boundary — attribution fuzz of at most one slice, never corruption,
// same discipline as LogHistogram::reset().
//
// The SloMonitor implements multi-window burn-rate alerting: a request
// violates the SLO when it errored or took longer than the p99 target;
// the burn rate over a window is (violating fraction) / error_budget.
// With budget 0.01 and target T, "burn ≤ 1" is exactly "p99 ≤ T". The
// alert state requires BOTH the short and the long window to burn (the
// classic page-on-fast-AND-slow rule, scaled to the ring's 80 s horizon)
// so a single hiccup spike does not page and a sustained breach does.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/log_histogram.hpp"

namespace anchor::obs {

/// One time bucket of a windowed snapshot, keyed by absolute epoch
/// (floor(unix_micros / slice_us)).
struct WindowSlice {
  std::uint64_t epoch = 0;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  HistogramSnapshot latency;
};

/// Plain-value copy of a WindowedStats ring: what the HEAT RPC carries and
/// the router merges. Slices are sorted by epoch ascending.
struct WindowedSnapshot {
  std::uint64_t slice_us = 0;
  std::uint64_t now_us = 0;  // capture time; trailing windows end here
  std::vector<WindowSlice> slices;

  /// Exact merge: same-epoch slices add counters and histogram buckets
  /// (commutative, associative, bit-identical in any merge order);
  /// now_us takes the max. Throws on slice-width mismatch — recorders
  /// must agree on the bucketing to be mergeable, like histogram bucket
  /// layouts.
  void merge(const WindowedSnapshot& other);

  /// Trailing-window aggregates over [now_us − window_us, now_us]. A
  /// slice counts when it overlaps the window at all, so the edge slice
  /// contributes fully — resolution is one slice width, documented.
  std::uint64_t requests_in(std::uint64_t window_us) const;
  std::uint64_t errors_in(std::uint64_t window_us) const;
  double qps(std::uint64_t window_us) const;
  double error_rate(std::uint64_t window_us) const;  // errors / requests
  HistogramSnapshot latency_in(std::uint64_t window_us) const;
};

/// Count of recorded values ≥ `threshold`, to log-bucket resolution: whole
/// buckets at or above the threshold's bucket count fully, so the result
/// can overcount by at most the threshold bucket's population (relative
/// bucket width ≤ LogHistogram::kMaxRelativeError).
std::uint64_t count_over(const HistogramSnapshot& h, double threshold);

struct WindowedConfig {
  std::uint64_t slice_us = 5'000'000;  // 5 s slices
  std::size_t num_slices = 16;         // 80 s of history
};

class WindowedStats {
 public:
  explicit WindowedStats(const WindowedConfig& config = {});
  WindowedStats(const WindowedStats&) = delete;
  WindowedStats& operator=(const WindowedStats&) = delete;

  /// Records one request. Lock-free except on a slice rotation.
  void record(double latency_us, bool error) {
    record_many_at(wall_micros(), latency_us, 1, error ? 1 : 0);
  }
  /// Deterministic-time variant for tests. A negative `latency_us` counts
  /// the requests without a latency observation.
  void record_many_at(std::uint64_t now_us, double latency_us,
                      std::uint64_t requests, std::uint64_t errors);

  WindowedSnapshot snapshot() const { return snapshot_at(wall_micros()); }
  WindowedSnapshot snapshot_at(std::uint64_t now_us) const;

  const WindowedConfig& config() const { return config_; }

  /// Unix wall-clock microseconds — wall (not steady) time so slice
  /// epochs from different processes line up for merging.
  static std::uint64_t wall_micros();

 private:
  struct Slot {
    std::atomic<std::uint64_t> epoch{kEmptyEpoch};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> errors{0};
    LogHistogram latency;
    std::mutex rotate_mu;
  };
  static constexpr std::uint64_t kEmptyEpoch = ~0ull;

  WindowedConfig config_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

struct SloConfig {
  /// Latency target: a request slower than this violates the SLO.
  /// 0 disables the latency term (errors alone burn budget).
  double p99_target_us = 0.0;
  /// Allowed violating fraction. 0.01 with a latency target T reads
  /// "p99 ≤ T": burn rate 1.0 means exactly 1% of requests violate.
  double error_budget = 0.01;
  std::uint64_t short_window_us = 10'000'000;
  std::uint64_t long_window_us = 60'000'000;
  double warn_burn = 1.0;   // alert 1 when both windows burn ≥ this
  double page_burn = 10.0;  // alert 2 when both windows burn ≥ this
};

struct SloState {
  double short_burn = 0.0;
  double long_burn = 0.0;
  int alert = 0;  // 0 = ok, 1 = warn, 2 = page — the exported gauge
};

class SloMonitor {
 public:
  explicit SloMonitor(SloConfig config = {}) : config_(config) {}

  /// Pure function of the snapshot — no internal state, so evaluating a
  /// merged fleet snapshot is as valid as a single daemon's.
  SloState evaluate(const WindowedSnapshot& w) const;

  const SloConfig& config() const { return config_; }

 private:
  SloConfig config_;
};

}  // namespace anchor::obs
