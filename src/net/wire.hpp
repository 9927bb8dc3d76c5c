// Length-prefixed binary wire protocol for the serving front-end.
//
// Every message is one frame: a u32 payload length, then a 4-byte header
// (magic, protocol version, message type, extension length), then
// `ext_len` extension bytes, then a type-specific payload. The extension
// carries the optional TraceContext (17 bytes; see PROTOCOL.md) — peers
// skip extension bytes they do not understand, so tracing rides along
// without perturbing any payload layout. All integers and floats are
// little-endian (x86 native; see PROTOCOL.md for the normative layout). Response payloads reuse the serve-layer
// structs verbatim — a lookup reply IS a serialized serve::LookupResult,
// a promote reply IS a serialized serve::GateReport — so the client
// deserializes straight into the same types in-process callers use.
//
// WireWriter/WireReader are deliberately dumb append/consume cursors:
// bounds are checked on every read and a violation throws WireError, so a
// malformed or truncated frame can never read out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "ann/ivf_pq.hpp"
#include "obs/heavy_hitters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/windowed.hpp"
#include "serve/canary.hpp"
#include "serve/deployment_gate.hpp"
#include "serve/lookup_service.hpp"
#include "serve/serve_stats.hpp"

namespace anchor::net {

class TcpStream;

/// Thrown on malformed frames/payloads (bad magic, truncated field,
/// oversized frame). A connection that produced one is not trustworthy and
/// should be closed.
struct WireError : std::runtime_error {
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint8_t kWireMagic = 0xA7;
/// v2: CanaryStatus payloads carry the worst-k displacement keys (an
/// insertion before trailing fields — not decodable as v1), CanaryAbort
/// grew an optional drain byte, and the cluster router types 0x0A–0x0D
/// were added.
/// v3: the frame header grew a fourth byte (extension length) so frames
/// can carry an optional TraceContext; StatsSnapshot payloads append the
/// full latency histogram; the METRICS pair 0x0E/0x8E was added. Mixed
/// v2/v3 peers disconnect cleanly on the version byte instead of
/// tripping over the layout mid-payload.
inline constexpr std::uint8_t kWireVersion = 3;
/// Byte size of the TraceContext frame extension (u64 trace id, u64 span
/// id, u8 flags). An ext_len ≥ this carries a trace; extension bytes
/// beyond the first 17 are skipped (room for future extensions within
/// v3).
inline constexpr std::uint8_t kTraceExtBytes = 17;
/// Frames above this are rejected before allocation — a garbage length
/// prefix must not become a multi-gigabyte resize.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 26;  // 64 MiB

enum class MsgType : std::uint8_t {
  // Requests.
  kLookupIds = 0x01,
  kLookupWords = 0x02,
  kTryPromote = 0x03,
  kStats = 0x04,
  kPing = 0x05,
  kShutdown = 0x06,
  kCanaryStart = 0x07,
  kCanaryStatus = 0x08,
  kCanaryAbort = 0x09,
  // Cluster-router requests (answered by anchor_router; a plain backend
  // answers them with an Error frame like any unknown type).
  kRolloutStart = 0x0A,
  kRolloutStatus = 0x0B,
  kRolloutAbort = 0x0C,
  kShardMap = 0x0D,
  // Answered by daemon AND router: a MetricsReport of the process's
  // metrics registry.
  kMetrics = 0x0E,
  // Installs (or clears, with an empty spec) a fault-injection config on
  // the receiving backend at runtime — the chaos harness's control knob.
  // Only honored when the daemon was started with --fault-inject (arming
  // the subsystem); otherwise answered with an Error frame.
  kFaultSet = 0x0F,
  // Approximate top-k search against the live IVF-PQ index (answered by
  // daemon AND router; the router fans a candidates-mode request out to
  // every shard and merges). Added in protocol v3 as a new type pair —
  // v3 peers that predate it answer with an Error frame, which clients
  // surface as "TOPK unsupported" rather than a protocol failure.
  kTopK = 0x10,
  // Load & drift telemetry snapshot (answered by daemon AND router): a
  // HeatReport of windowed request stats, the heavy-hitter key sketch,
  // and the per-range heat map. The router fans the request out to every
  // live replica of every shard and merges — replica data adds within a
  // shard, shard data is lifted into global id space and concatenated.
  // Added within protocol v3 as a new type pair, same compatibility
  // stance as TOPK: older peers answer with an Error frame, which
  // clients surface as "HEAT unsupported".
  kHeat = 0x11,
  // Responses: request type | 0x80.
  kLookupIdsReply = 0x81,
  kLookupWordsReply = 0x82,
  kTryPromoteReply = 0x83,
  kStatsReply = 0x84,
  kPong = 0x85,
  kShutdownReply = 0x86,
  kCanaryStartReply = 0x87,
  kCanaryStatusReply = 0x88,
  kCanaryAbortReply = 0x89,
  kRolloutStartReply = 0x8A,
  kRolloutStatusReply = 0x8B,
  kRolloutAbortReply = 0x8C,
  kShardMapReply = 0x8D,
  kMetricsReply = 0x8E,
  kFaultSetReply = 0x8F,
  kTopKReply = 0x90,
  kHeatReply = 0x91,
  // Carries a string; sent instead of the normal reply when the server
  // failed to serve the request (e.g. unknown candidate version).
  kError = 0x7F,
};

/// Append-only payload builder.
class WireWriter {
 public:
  /// Pre-size the buffer when the payload size is known — saves the
  /// growth reallocations on large frames.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f32(float v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void f32s(const float* data, std::size_t n) { raw(data, n * sizeof(float)); }
  void bytes(const std::uint8_t* data, std::size_t n) { raw(data, n); }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }

 private:
  // resize+memcpy rather than insert: identical behavior, but GCC 12's
  // -Wstringop-overflow false-fires on the inlined insert-into-empty-
  // vector memmove in some TUs.
  void raw(const void* p, std::size_t n) {
    if (n == 0) return;  // p may be null (an empty vector's data())
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, p, n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked payload consumer over a received frame.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  float f32() { return take<float>(); }
  double f64() { return take<double>(); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  // n == 0 skips the memcpy: an empty vector's data() may be null, and
  // memcpy with a null pointer is undefined even at size 0.
  void f32s(float* out, std::size_t n) {
    need(n * sizeof(float));
    if (n == 0) return;
    std::memcpy(out, data_ + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
  }
  void bytes(std::uint8_t* out, std::size_t n) {
    need(n);
    if (n == 0) return;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  std::size_t remaining() const { return size_ - pos_; }
  /// Call after decoding a payload: trailing bytes mean the peer and we
  /// disagree about the layout, which should fail loudly, not silently.
  void expect_done() const {
    if (pos_ != size_) {
      throw WireError("trailing bytes in payload: " +
                      std::to_string(size_ - pos_));
    }
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) throw WireError("truncated payload");
  }
  template <typename T>
  T take() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- frame I/O ---------------------------------------------------------

/// Builds one complete frame (length prefix + header + optional trace
/// extension + payload) as a contiguous buffer. write_frame sends exactly
/// this; it is exposed so the fault injector can send a deliberately
/// truncated prefix of a well-formed frame.
std::vector<std::uint8_t> encode_frame(MsgType type, const WireWriter& payload,
                                       const obs::TraceContext& trace);

/// Writes one frame (length prefix + header + payload) in a single send.
/// When `trace` is valid, it rides in the frame extension.
void write_frame(TcpStream& stream, MsgType type, const WireWriter& payload,
                 const obs::TraceContext& trace);
void write_frame(TcpStream& stream, MsgType type, const WireWriter& payload);

/// Reads one frame. Returns false on clean EOF before a frame starts.
/// Throws WireError on bad magic/version/length or an extension length
/// exceeding the frame, NetError on socket failures or EOF mid-frame.
/// When `trace` is non-null it receives the frame's TraceContext (a
/// zeroed context when the frame carried none).
bool read_frame(TcpStream& stream, MsgType* type,
                std::vector<std::uint8_t>* payload,
                obs::TraceContext* trace = nullptr);

// ---- payload codecs (shared by Client and Server) ----------------------

void encode_lookup_result(const serve::LookupResult& result, WireWriter* w);
/// Encodes rows [first, first+count) of `result` in the same layout.
void encode_lookup_result_slice(const serve::LookupResult& result,
                                std::size_t first, std::size_t count,
                                WireWriter* w);
serve::LookupResult decode_lookup_result(WireReader* r);

void encode_gate_report(const serve::GateReport& report, WireWriter* w);
serve::GateReport decode_gate_report(WireReader* r);

/// Sparse histogram codec: aggregates, then {bucket index, count} pairs
/// for the nonzero buckets only — a latency histogram with a handful of
/// hot buckets costs tens of bytes, not kNumBuckets · 8.
void encode_histogram(const obs::HistogramSnapshot& h, WireWriter* w);
obs::HistogramSnapshot decode_histogram(WireReader* r);

void encode_stats_snapshot(const serve::StatsSnapshot& s, WireWriter* w);
serve::StatsSnapshot decode_stats_snapshot(WireReader* r);

void encode_metrics_report(const obs::MetricsReport& m, WireWriter* w);
obs::MetricsReport decode_metrics_report(WireReader* r);

/// Stats reply payload: what the daemon reports about itself.
struct ServerStatsReport {
  std::string live_version;
  /// Row encoding of the live snapshot — "fp32", "int8", "pq:4x8", … (the
  /// EmbeddingSnapshot::encoding() string; the router reports "mixed" while
  /// shards disagree). Optional TRAILING wire field: a v3 peer's reply
  /// simply omits it and decodes here as "", so new readers accept old
  /// replies unchanged (old readers reject the longer v4 payload — see
  /// PROTOCOL.md's compatibility note).
  std::string encoding;
  /// LookupService counters (one record per lookup call). The wire
  /// payload still carries a second StatsSnapshot block after this one,
  /// reserved since the daemon stopped batching: written empty, skipped
  /// on read.
  serve::StatsSnapshot service;
};

void encode_server_stats(const ServerStatsReport& s, WireWriter* w);
ServerStatsReport decode_server_stats(WireReader* r);

/// Canary reply payload (all three canary RPCs answer with this): the
/// state machine position, the participating versions, the phase-1
/// offline report, and the live online measurements.
struct CanaryStatusReport {
  serve::CanaryState state = serve::CanaryState::kNone;
  std::string incumbent;
  std::string candidate;
  double fraction = 0.0;
  double shadow_rate = 0.0;
  serve::GateReport offline;      // zero-valued when state == kNone
  serve::CanaryStatsSnapshot online;
  std::string reason;             // terminal decision reason ("" otherwise)
};

void encode_canary_stats(const serve::CanaryStatsSnapshot& s, WireWriter* w);
serve::CanaryStatsSnapshot decode_canary_stats(WireReader* r);

void encode_canary_status(const CanaryStatusReport& s, WireWriter* w);
CanaryStatusReport decode_canary_status(WireReader* r);

// ---- cluster rollout ----------------------------------------------------
// Plain-type mirrors of the cluster router's rollout state machine. They
// live here (not in src/cluster/) because they ARE the wire contract: the
// client decodes them without linking any cluster code, and cluster/
// already depends on net/.

enum class RolloutState : std::uint8_t {
  kIdle = 0,        // no rollout ever started
  kRunning = 1,     // walking the shards
  kCompleted = 2,   // every shard promoted the candidate
  kRolledBack = 3,  // a shard refused; promoted shards were rolled back
  kAborted = 4,     // operator abort; promoted shards were rolled back
};

enum class ShardRolloutState : std::uint8_t {
  kPending = 0,     // not reached yet
  kInProgress = 1,  // gated promote / canary running on this shard
  kPromoted = 2,    // candidate live on this shard
  kFailed = 3,      // gate rejected, canary rolled back, or shard down
  kRolledBack = 4,  // was promoted, then reverted by the rollout
};

std::string rollout_state_name(RolloutState s);
std::string shard_rollout_state_name(ShardRolloutState s);

/// Reply payload of ROLLOUT_START / ROLLOUT_STATUS / ROLLOUT_ABORT.
struct ShardRolloutStatus {
  ShardRolloutState state = ShardRolloutState::kPending;
  std::string detail;  // per-shard decision reason / error text
};

struct RolloutStatusReport {
  RolloutState state = RolloutState::kIdle;
  std::string candidate;
  /// 0 = offline gated promote per shard, 1 = full canary per shard.
  std::uint8_t mode = 0;
  /// ShardMap::version() the rollout was started against.
  std::uint64_t map_version = 0;
  std::vector<ShardRolloutStatus> shards;
  std::string reason;  // terminal summary ("" while running/idle)

  bool terminal() const {
    return state == RolloutState::kCompleted ||
           state == RolloutState::kRolledBack ||
           state == RolloutState::kAborted;
  }
};

void encode_rollout_status(const RolloutStatusReport& s, WireWriter* w);
RolloutStatusReport decode_rollout_status(WireReader* r);

// ---- approximate top-k search (TOPK) ------------------------------------

/// mode — what the server returns:
///   kTopKModeFinal: the k best hits by (exact distance, id) — what end
///     clients want.
///   kTopKModeCandidates: the full ADC shortlist sorted by (adc, id), ids
///     still local to the shard — what the cluster router requests from
///     each shard so its merge can reconstruct the single-process
///     selection exactly (see cluster/cluster_client.hpp).
inline constexpr std::uint8_t kTopKModeFinal = 0;
inline constexpr std::uint8_t kTopKModeCandidates = 1;

/// kind — how the query vector is specified:
///   kTopKKindId / kTopKKindWord resolve a live-store row through the
///   server's LookupService and search for its neighbors; kTopKKindVector carries a raw float vector (what the
///   router sends shards after resolving the query itself).
inline constexpr std::uint8_t kTopKKindId = 0;
inline constexpr std::uint8_t kTopKKindWord = 1;
inline constexpr std::uint8_t kTopKKindVector = 2;

struct TopKRequest {
  std::uint32_t k = 10;
  std::uint32_t nprobe = 0;  // 0 = server-side default
  std::uint32_t rerank = 0;  // 0 = server-side default
  std::uint8_t mode = kTopKModeFinal;
  std::uint8_t kind = kTopKKindId;
  std::uint64_t id = 0;       // kTopKKindId
  std::string word;           // kTopKKindWord
  std::vector<float> vector;  // kTopKKindVector
};

void encode_topk_request(const TopKRequest& req, WireWriter* w);
TopKRequest decode_topk_request(WireReader* r);

/// The reply IS a serialized ann::TopKResult, same pattern as lookups.
void encode_topk_result(const ann::TopKResult& result, WireWriter* w);
ann::TopKResult decode_topk_result(WireReader* r);

// ---- load & drift telemetry (HEAT) --------------------------------------

/// HEAT reply payload: the process's windowed request stats, heavy-hitter
/// key sketch, and per-range heat map, all as mergeable snapshots (the
/// router merges them exactly like the client would, bit-identically).
/// Backends report keys/ranges in LOCAL row-id space; ClusterClient::heat
/// shifts each shard's view by its global row_begin before merging.
struct HeatReport {
  obs::WindowedSnapshot windowed;
  obs::SketchSnapshot sketch;
  obs::HeatMapSnapshot heat;
};

void encode_windowed_snapshot(const obs::WindowedSnapshot& w, WireWriter* out);
obs::WindowedSnapshot decode_windowed_snapshot(WireReader* r);

void encode_sketch_snapshot(const obs::SketchSnapshot& s, WireWriter* out);
obs::SketchSnapshot decode_sketch_snapshot(WireReader* r);

void encode_heat_map(const obs::HeatMapSnapshot& h, WireWriter* out);
obs::HeatMapSnapshot decode_heat_map(WireReader* r);

void encode_heat_report(const HeatReport& h, WireWriter* out);
HeatReport decode_heat_report(WireReader* r);

}  // namespace anchor::net
