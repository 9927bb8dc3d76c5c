// Thread-safe batched embedding lookup over an EmbeddingStore.
//
// The hot path — resolve the live snapshot, gather rows into the caller's
// output buffer — holds the store's mutex only to copy the live pointer:
// the snapshot is an immutable shared_ptr, so a hot swap can never serve a
// stale generation (a batch reads the snapshot it resolved, start to
// finish). Each row is
// copied (fp32) or decoded (int8, PQ) straight into the result; a
// dequantized-row LRU cache in front of the decode measured slower than
// the decode itself at every dim, encoding and thread count, so there is
// none.
//
// Requests may also carry word *strings*; ids outside the live vocabulary
// fall back to subword synthesis (embed/subword hashed n-grams) when the
// snapshot carries an OOV table.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/embedding_store.hpp"
#include "serve/serve_stats.hpp"

namespace anchor::obs {
struct KeyLoadRecorder;
}  // namespace anchor::obs

namespace anchor::serve {

struct LookupConfig {
  /// When set, every lookup resolves this exact snapshot instead of the
  /// store's live one. Identity, not name: the canary router pins the
  /// candidate snapshot it evaluated, so a concurrent re-register under
  /// the same version id can never ride into a running canary.
  SnapshotPtr pin_snapshot = nullptr;
  /// When set, every resolved (in-vocabulary) row is attributed to the
  /// heavy-hitter sketch and range heat map — one hook covers the direct,
  /// batched, and canary-shadow paths, which all funnel through
  /// lookup_batch_into. OOV requests resolve to no row and are skipped:
  /// they carry no id to attribute a range to. Not owned; must outlive
  /// the service.
  obs::KeyLoadRecorder* load = nullptr;
};

/// LookupResult::oov flag values. The serve layer itself only ever writes
/// 0 or kLookupFlagOov; the cluster router additionally flags rows it
/// could not serve because the owning shard was down with
/// kLookupFlagDegraded (zero vector, same consumer contract as OOV: "this
/// is not a real embedding"). Callers that only test `oov[i] != 0` treat
/// both identically, which is exactly the degraded-mode contract.
inline constexpr std::uint8_t kLookupFlagOov = 1;
inline constexpr std::uint8_t kLookupFlagDegraded = 2;

/// Parses a synthetic id "wNNNN" → row id; returns false for anything else
/// (real-word strings, malformed or overflowing tokens), which then takes
/// the OOV path. Shared with the cluster shard router, which resolves
/// word traffic to global rows with the same rule the backends use.
bool parse_synthetic_word_id(const std::string& word, std::size_t* id);

/// Result of a batched lookup: vectors are concatenated row-major in
/// request order (batch_size × dim). The struct is reusable: the *_into
/// entry points overwrite it in place, so a long-lived caller (a
/// connection handler thread, the canary router) keeps one result and
/// never reallocates in the steady state. It also doubles as the RPC
/// payload layout (net/wire serializes these fields verbatim).
struct LookupResult {
  std::size_t dim = 0;
  std::vector<float> vectors;
  /// Per-request flags: true when the word was out-of-vocabulary and the
  /// vector was synthesized (or zeroed) rather than looked up.
  std::vector<std::uint8_t> oov;
  std::string version;  // snapshot that answered

  std::size_t size() const { return oov.size(); }
  const float* row(std::size_t i) const { return vectors.data() + i * dim; }
};

class LookupService {
 public:
  /// The store must outlive the service. `stats` may be shared with other
  /// services; when null an internal ServeStats is used.
  explicit LookupService(const EmbeddingStore& store, LookupConfig config = {},
                         std::shared_ptr<ServeStats> stats = nullptr);

  /// Batched lookup by word id against the live snapshot. Ids ≥ vocab_size
  /// yield zero vectors flagged oov (no subword string to synthesize from).
  LookupResult lookup_ids(const std::vector<std::size_t>& ids) const;

  /// Batched lookup by word string. In-vocabulary synthetic ids ("w0042")
  /// resolve to their row; anything else takes the subword OOV fallback.
  LookupResult lookup_words(const std::vector<std::string>& words) const;

  /// In-place variants: overwrite `out`, reusing its buffers (`assign`
  /// keeps capacity), so a caller serving many batches pays no allocation
  /// after warm-up. The RPC connection handlers and the canary use these.
  void lookup_ids_into(const std::vector<std::size_t>& ids,
                       LookupResult* out) const;
  void lookup_words_into(const std::vector<std::string>& words,
                         LookupResult* out) const;

  const ServeStats& stats() const { return *stats_; }
  ServeStats& stats() { return *stats_; }

 private:
  /// Shared batch skeleton: resolve the live snapshot, map every request to
  /// a row id via `resolve(i, snap, &row)` (false = OOV), gather all rows
  /// in one pass, fill OOV slots via `oov_fill`, record stats.
  /// Writes into `*out` (reusing its buffers). Defined in the .cpp; the
  /// public entry points instantiate it there.
  template <typename Resolve, typename OovFill>
  void lookup_batch_into(std::size_t n, const Resolve& resolve,
                         const OovFill& oov_fill, LookupResult* out) const;

  const EmbeddingStore& store_;
  LookupConfig config_;
  std::shared_ptr<ServeStats> stats_;
};

}  // namespace anchor::serve
