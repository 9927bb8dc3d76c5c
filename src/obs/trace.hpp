// Cross-process request tracing for the serving fleet.
//
// A TraceContext is 17 bytes — trace id, span id, flags — carried in the
// optional wire-frame extension of protocol v3 (net/PROTOCOL.md), so one
// sampled lookup can be followed client → router → backend →
// LookupService. Each component brackets its stage with monotonic
// (steady_clock) timestamps and records a SpanRecord into the
// process-wide Tracer's lock-free span ring; the request originator
// calls finish_request(), which — when the request exceeded the
// configured threshold — appends one JSONL line with every local span of
// the trace to the slow-request log. Timestamps are comparable across
// processes on one machine (CLOCK_MONOTONIC); cross-machine spans share
// the trace id but not a clock.
//
// Recording discipline matches the rest of the stats plane: the hot path
// is an atomic cursor fetch_add plus relaxed stores behind a per-slot
// sequence number (odd = being written); readers discard slots whose
// sequence changed under them, so a racing scan drops a span instead of
// tearing one. Nothing on the record path takes a lock — the slow-log
// append (mutex + file I/O) happens only on the threshold-triggered
// path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace anchor::obs {

struct TraceContext {
  static constexpr std::uint8_t kSampled = 0x1;

  std::uint64_t trace_id = 0;  // 0 = no trace attached
  std::uint64_t span_id = 0;
  std::uint8_t flags = 0;

  bool valid() const { return trace_id != 0; }
  bool sampled() const { return valid() && (flags & kSampled) != 0; }

  /// Child context for a sub-request (same trace, fresh span id) — what a
  /// router stamps on the frames it fans out to backends.
  TraceContext child() const;
  /// Fresh root context with random ids.
  static TraceContext start(bool sampled = true);
};

/// Stage identifiers: where in the pipeline a span was measured. Values
/// are stable (they appear in slow logs and tests).
enum class TraceStage : std::uint8_t {
  kClientSend = 1,    // client: frame sent → reply decoded
  kRouterRecv = 2,    // router: request frame parsed → reply written
  kRouterScatter = 3, // router: first backend send → last backend reply
  kShardRtt = 4,      // router: one backend's send → its replies (detail=shard)
  kRouterMerge = 5,   // router: scatter done → merged result ready
  kBackendRecv = 6,   // backend: request frame parsed → reply written
  kBatchQueue = 7,    // reserved: the retired daemon batcher's queue wait
  kBatchExec = 8,     // reserved: the retired daemon batcher's execution
  kDequantize = 9,    // backend: row copy/decode pass inside the lookup
  kTopkSearch = 10,   // backend: IVF-PQ probe+ADC+re-rank inside a TOPK
};

const char* trace_stage_name(TraceStage stage);

struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  TraceStage stage = TraceStage::kClientSend;
  std::uint32_t detail = 0;  // stage-specific (shard index for kShardRtt)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

struct TracerConfig {
  /// finish_request() appends to the slow log when the request took at
  /// least this long. 0 = log every sampled request (tests, debugging).
  double slow_threshold_us = 10000.0;
  /// JSONL slow-request log path; empty disables the slow log entirely.
  std::string slow_log_path;
  /// Size-capped rotation: when an append would push the log past this
  /// many bytes, the file is renamed to "<path>.1" (replacing any
  /// previous .1) and a fresh log starts — at most 2× the cap on disk,
  /// the classic logrotate-keep-one scheme. 0 disables rotation
  /// (unbounded growth, the pre-rotation behavior). Default 16 MiB.
  std::uint64_t slow_log_max_bytes = 16ull << 20;
};

class Tracer {
 public:
  /// Process-wide instance: one ring per process means an in-process
  /// cluster (tests) sees client, router, and backend spans of a trace
  /// in one place, and a daemon's slow log covers all its stages.
  static Tracer& instance();

  void configure(TracerConfig config);
  TracerConfig config() const;

  /// Records one completed span. No-op unless ctx.sampled(). Lock-free.
  void record(const TraceContext& ctx, TraceStage stage,
              std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint32_t detail = 0);

  /// Request-completion hook for the originating layer (client roundtrip,
  /// daemon handler): triggers the slow-log append when the total
  /// duration crosses the threshold.
  void finish_request(const TraceContext& ctx, std::uint64_t start_ns,
                      std::uint64_t end_ns);

  /// Every stable span of `trace_id` currently in the ring, sorted by
  /// start time. Spans overwritten by ring wrap (or mid-write during the
  /// scan) are absent — this is an observability surface, not an audit
  /// log.
  std::vector<SpanRecord> spans_for(std::uint64_t trace_id) const;

  std::uint64_t spans_recorded() const {
    return cursor_.load(std::memory_order_relaxed);
  }

  /// Drops every recorded span (tests isolate themselves with this).
  void clear();

  static std::uint64_t now_ns();

  /// Thread-local context bridge: the request's TraceContext is not in
  /// LookupService's argument list (its API predates tracing). The
  /// daemon's connection thread installs a Scope around a sampled lookup;
  /// LookupService reads current() to attribute its dequantize span.
  static const TraceContext& current();
  class Scope {
   public:
    explicit Scope(const TraceContext& ctx);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TraceContext saved_;
  };

 private:
  static constexpr std::size_t kRing = 4096;

  /// Seqlock-protected slot: seq odd while a writer owns it; readers
  /// accept a slot only when seq is even and unchanged across the field
  /// reads. Fields are atomics (relaxed) so a doomed racy read is merely
  /// discarded, never undefined.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> span_id{0};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> end_ns{0};
    std::atomic<std::uint32_t> stage_detail{0};  // stage | detail << 8
  };

  void append_slow_log(const TraceContext& ctx, double total_us,
                       std::uint64_t start_ns);

  std::array<Slot, kRing> ring_{};
  std::atomic<std::uint64_t> cursor_{0};
  mutable std::mutex mu_;  // config + slow-log appends (cold path only)
  TracerConfig config_;
};

}  // namespace anchor::obs
