#include "serve/canary.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "la/kernels.hpp"
#include "util/check.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace anchor::serve {

namespace {

constexpr std::size_t kNoProbe = static_cast<std::size_t>(-1);

/// splitmix64 finalizer — the routing hash. Cheap, well-mixed, and easy
/// to restate in any other implementation of the wire protocol, which is
/// what makes the routing auditable: whether a key canaries is a pure
/// function of (seed, fraction, key).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The routing hash, overloaded per key type (word keys hash their
/// bytes first with anchor::fnv1a — standard FNV-1a 64, easy to restate
/// in another implementation of the wire protocol). Shadow sampling
/// re-mixes with a salt so the shadow subset is an independent
/// sub-sample of the candidate-routed keys.
constexpr std::uint64_t kShadowSalt = 0xa5a5a5a5a5a5a5a5ull;

std::uint64_t route_hash(std::uint64_t seed, std::size_t key) {
  return mix64(static_cast<std::uint64_t>(key) ^ seed);
}
std::uint64_t route_hash(std::uint64_t seed, const std::string& word) {
  return mix64(anchor::fnv1a(word) ^ seed);
}

/// fraction ∈ [0,1] → inclusive-exclusive threshold on the u64 hash.
std::uint64_t fraction_threshold(double fraction) {
  if (fraction <= 0.0) return 0;
  if (fraction >= 1.0) return ~0ull;
  // fraction < 1 strictly, so the product is < 2^64 and the cast is safe.
  return static_cast<std::uint64_t>(fraction * 18446744073709551616.0);
}

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Hoeffding half-width for a mean of n samples from a range of width
/// `range`, at two-sided confidence `confidence`.
double hoeffding_half(std::uint64_t n, double range, double confidence) {
  if (n == 0) return range;
  const double delta = std::clamp(1.0 - confidence, 1e-12, 1.0);
  return range * std::sqrt(std::log(2.0 / delta) /
                           (2.0 * static_cast<double>(n)));
}

}  // namespace

std::string canary_state_name(CanaryState s) {
  switch (s) {
    case CanaryState::kNone:
      return "none";
    case CanaryState::kOfflineRejected:
      return "offline-rejected";
    case CanaryState::kRunning:
      return "running";
    case CanaryState::kPromoted:
      return "promoted";
    case CanaryState::kRolledBack:
      return "rolled-back";
    case CanaryState::kAborted:
      return "aborted";
  }
  ANCHOR_CHECK_MSG(false, "unknown CanaryState");
  return "";
}

// ---- CanaryStats -------------------------------------------------------

void CanaryStats::record_shadow(double agreement, double displacement,
                                double latency_delta_us, std::uint64_t key) {
  if (key != kNoKey) {
    // Fast reject: once the worst-k heap is full, only a displacement
    // beating its cached minimum (or updating a key already tracked —
    // caught under the lock) needs the mutex. The floor is conservative
    // (it only ever rises under the lock), so a stale read can cause a
    // harmless extra lock, never a missed outlier.
    const double floor = worst_floor_.load(std::memory_order_relaxed);
    if (floor < 0.0 || displacement > floor) {
      std::lock_guard<std::mutex> lock(worst_mu_);
      const auto by_disp = [](const CanaryWorstKey& a,
                              const CanaryWorstKey& b) {
        return a.displacement > b.displacement;  // min-heap on displacement
      };
      bool known = false;
      for (CanaryWorstKey& w : worst_) {
        if (w.key == key) {
          known = true;
          if (displacement > w.displacement) {
            w.displacement = displacement;
            std::make_heap(worst_.begin(), worst_.end(), by_disp);
          }
          break;
        }
      }
      if (!known) {
        if (worst_.size() < kWorstK) {
          worst_.push_back({key, displacement});
          std::push_heap(worst_.begin(), worst_.end(), by_disp);
        } else if (displacement > worst_.front().displacement) {
          std::pop_heap(worst_.begin(), worst_.end(), by_disp);
          worst_.back() = {key, displacement};
          std::push_heap(worst_.begin(), worst_.end(), by_disp);
        }
      }
      if (worst_.size() == kWorstK) {
        worst_floor_.store(worst_.front().displacement,
                           std::memory_order_relaxed);
      }
    }
  }
  agreement_sum_micro_.fetch_add(
      static_cast<std::uint64_t>(agreement * kMicro + 0.5),
      std::memory_order_relaxed);
  displacement_sum_micro_.fetch_add(
      static_cast<std::uint64_t>(displacement * kMicro + 0.5),
      std::memory_order_relaxed);
  latency_delta_sum_micro_.fetch_add(
      static_cast<std::int64_t>(std::llround(latency_delta_us * kMicro)),
      std::memory_order_relaxed);
  agreement_hist_.record(agreement);
  displacement_hist_.record(displacement);
  // Count last (release): a reader that observes n shadows sees sums that
  // include at least those n samples, so the running means never read
  // ahead of the count.
  shadows_.fetch_add(1, std::memory_order_release);
}

CanaryStatsSnapshot CanaryStats::snapshot(double confidence,
                                          bool with_medians) const {
  CanaryStatsSnapshot s;
  s.candidate_lookups = candidate_lookups_.load(std::memory_order_relaxed);
  s.incumbent_lookups = incumbent_lookups_.load(std::memory_order_relaxed);
  const std::uint64_t n = shadows_.load(std::memory_order_acquire);
  s.shadows = n;
  if (n > 0) {
    const double inv = 1.0 / (static_cast<double>(n) * kMicro);
    s.mean_agreement =
        static_cast<double>(
            agreement_sum_micro_.load(std::memory_order_relaxed)) *
        inv;
    s.mean_displacement =
        static_cast<double>(
            displacement_sum_micro_.load(std::memory_order_relaxed)) *
        inv;
    s.mean_latency_delta_us =
        static_cast<double>(
            latency_delta_sum_micro_.load(std::memory_order_relaxed)) *
        inv;
    const double half = hoeffding_half(n, 1.0, confidence);
    s.agreement_lower = std::max(0.0, s.mean_agreement - half);
    s.agreement_upper = std::min(1.0, s.mean_agreement + half);
    if (with_medians) {
      s.p50_agreement = agreement_hist_.quantile(0.50);
      s.p50_displacement = displacement_hist_.quantile(0.50);
      {
        std::lock_guard<std::mutex> lock(worst_mu_);
        s.worst_keys = worst_;
      }
      std::sort(s.worst_keys.begin(), s.worst_keys.end(),
                [](const CanaryWorstKey& a, const CanaryWorstKey& b) {
                  if (a.displacement != b.displacement) {
                    return a.displacement > b.displacement;  // worst first
                  }
                  return a.key < b.key;
                });
    }
  }
  return s;
}

/// "key:displacement|key:displacement" — ':' and '|' keep the list safe
/// inside the audit CSV's comma-separated reason column.
static std::string format_worst_keys(
    const std::vector<CanaryWorstKey>& worst) {
  std::ostringstream os;
  os.precision(4);
  for (std::size_t i = 0; i < worst.size(); ++i) {
    if (i > 0) os << "|";
    os << worst[i].key << ":" << worst[i].displacement;
  }
  return os.str();
}

std::string CanaryStatsSnapshot::summary() const {
  std::ostringstream os;
  os << "shadows=" << shadows << " agreement=" << mean_agreement << " ["
     << agreement_lower << ", " << agreement_upper << "]"
     << " displacement=" << mean_displacement
     << " latency_delta_us=" << mean_latency_delta_us
     << " cand_keys=" << candidate_lookups
     << " inc_keys=" << incumbent_lookups;
  if (!worst_keys.empty()) {
    os << " worst_keys=" << format_worst_keys(worst_keys);
  }
  return os.str();
}

// ---- CanaryRouter ------------------------------------------------------

CanaryRouter::CanaryRouter(EmbeddingStore& store,
                           const LookupService& incumbent_service,
                           SnapshotPtr incumbent, SnapshotPtr candidate,
                           GateReport offline, CanaryConfig config,
                           std::filesystem::path audit_log)
    : store_(store),
      incumbent_service_(incumbent_service),
      incumbent_(std::move(incumbent)),
      candidate_(std::move(candidate)),
      incumbent_name_(incumbent_->version()),
      candidate_name_(candidate_->version()),
      offline_(std::move(offline)),
      config_(config),
      audit_log_(std::move(audit_log)),
      route_threshold_(fraction_threshold(config.fraction)),
      shadow_threshold_(fraction_threshold(config.shadow_rate)),
      candidate_service_(store,
                         [&] {
                           LookupConfig lc = config.candidate_lookup;
                           lc.pin_snapshot = candidate_;
                           return lc;
                         }(),
                         config.candidate_service_stats) {
  ANCHOR_CHECK_MSG(incumbent_->dim() == candidate_->dim(),
                   "canary requires equal embedding dimensions ("
                       << incumbent_->dim() << " vs " << candidate_->dim()
                       << ")");
  if (config_.knn_k == 0) config_.knn_k = 1;

  // Probe panel: one fixed sample of shared-vocabulary rows; each
  // version's panel rows are L2-normalized in that version's own space,
  // so per-shadow scoring is two matvecs + two top-k selections.
  const std::size_t shared =
      std::min(incumbent_->vocab_size(), candidate_->vocab_size());
  std::size_t m = std::min(config_.probe_rows, shared);
  if (m == 0) m = 1;
  probe_ids_.reserve(m);
  if (m == shared) {
    for (std::size_t i = 0; i < m; ++i) probe_ids_.push_back(i);
  } else {
    Rng rng(config_.seed ^ 0x70726f6265733231ull);
    std::unordered_set<std::size_t> seen;
    while (probe_ids_.size() < m) {
      const std::size_t id = rng.index(shared);
      if (seen.insert(id).second) probe_ids_.push_back(id);
    }
  }
  for (std::size_t p = 0; p < probe_ids_.size(); ++p) {
    probe_index_.emplace(probe_ids_[p], p);
  }

  const std::size_t dim = incumbent_->dim();
  std::vector<float> buf(m * dim);
  const auto build_panel = [&](const EmbeddingSnapshot& snap,
                               la::Matrix* panel) {
    snap.copy_rows(probe_ids_.data(), m, buf.data());
    *panel = la::Matrix(m, dim);
    for (std::size_t r = 0; r < m; ++r) {
      double* dst = panel->row(r);
      const float* src = buf.data() + r * dim;
      for (std::size_t j = 0; j < dim; ++j) dst[j] = src[j];
      la::kernels::l2_normalize(dst, dim);
    }
  };
  build_panel(*incumbent_, &probes_incumbent_);
  build_panel(*candidate_, &probes_candidate_);
}

CanaryRouter::~CanaryRouter() = default;

bool CanaryRouter::routes_to_candidate(std::size_t key) const {
  return route_hash(config_.seed, key) < route_threshold_;
}

bool CanaryRouter::routes_to_candidate(const std::string& word) const {
  return route_hash(config_.seed, word) < route_threshold_;
}

bool CanaryRouter::shadows_key(std::size_t key) const {
  return mix64(route_hash(config_.seed, key) ^ kShadowSalt) <
         shadow_threshold_;
}

namespace {

/// The service entry point per key type.
void lookup_into(const LookupService& service,
                 const std::vector<std::size_t>& ids, LookupResult* out) {
  service.lookup_ids_into(ids, out);
}
void lookup_into(const LookupService& service,
                 const std::vector<std::string>& words, LookupResult* out) {
  service.lookup_words_into(words, out);
}

/// Scatters src row r → out row slots[r] for every slot.
void scatter_rows(const LookupResult& src,
                  const std::vector<std::uint32_t>& slots,
                  LookupResult* out) {
  const std::size_t dim = out->dim;
  for (std::size_t r = 0; r < slots.size(); ++r) {
    std::memcpy(out->vectors.data() + slots[r] * dim, src.row(r),
                dim * sizeof(float));
    out->oov[slots[r]] = src.oov[r];
  }
}

/// Probe self-exclusion inputs per key type: id keys are row ids; word
/// keys carry no row id, so exclusion does not apply.
const std::vector<std::size_t>& self_probe_ids(
    const std::vector<std::size_t>& shadow_keys) {
  return shadow_keys;
}
const std::vector<std::size_t>& self_probe_ids(
    const std::vector<std::string>&) {
  static const std::vector<std::size_t> kEmpty;
  return kEmpty;
}

}  // namespace

/// Decrement-on-scope-exit for CanaryRouter::inflight_ (drain-mode abort
/// waits on it, so every early return must decrement). seq_cst, not
/// acq_rel: the drain handshake is a Dekker-style store-load pattern
/// (router: inc inflight THEN load draining; abort: store draining THEN
/// load inflight), and with anything weaker both sides may read the
/// stale value — the abort seeing inflight==0 while the router saw
/// draining==false and still routes to the candidate. Under the seq_cst
/// total order, an abort that reads inflight==0 is ordered before the
/// increment, which is ordered before the router's draining load, which
/// therefore observes true.
struct InflightGuard {
  std::atomic<int>* counter;
  explicit InflightGuard(std::atomic<int>& c) : counter(&c) {
    counter->fetch_add(1, std::memory_order_seq_cst);
  }
  /// Early decrement for the passthrough (not-routing) branch: once the
  /// active() check came back false this request can never touch the
  /// candidate, and keeping it counted would make a drain wait on plain
  /// incumbent traffic (under steady load, for the whole drain timeout).
  void release() {
    if (counter != nullptr) {
      counter->fetch_sub(1, std::memory_order_seq_cst);
      counter = nullptr;
    }
  }
  ~InflightGuard() { release(); }
};

template <typename Key>
void CanaryRouter::route_into(const std::vector<Key>& keys,
                              LookupResult* out) {
  // Count BEFORE the active() check: a drain that observes inflight_ == 0
  // after setting draining_ then knows no request can still be on its way
  // to the candidate (later entrants see draining_ and take the live
  // path).
  InflightGuard inflight(inflight_);
  if (!active()) {
    inflight.release();  // incumbent-only from here; don't stall a drain
    // Terminal (or about to be replaced): everything follows the store's
    // live version through the shared service.
    lookup_into(incumbent_service_, keys, out);
    return;
  }

  // Partition by the deterministic key hash. Shadowed keys are a
  // sampled subset of the *candidate-routed* keys: those are the ones
  // whose serving experience changed, so they are the ones mirrored.
  std::vector<Key> cand_keys, inc_keys, shadow_keys;
  std::vector<std::uint32_t> cand_slots, inc_slots;
  std::vector<std::uint32_t> shadow_cand_rows;  // row in the cand result
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t h = route_hash(config_.seed, keys[i]);
    if (h < route_threshold_) {
      if (mix64(h ^ kShadowSalt) < shadow_threshold_) {
        shadow_keys.push_back(keys[i]);
        shadow_cand_rows.push_back(
            static_cast<std::uint32_t>(cand_keys.size()));
      }
      cand_slots.push_back(static_cast<std::uint32_t>(i));
      cand_keys.push_back(keys[i]);
    } else {
      inc_slots.push_back(static_cast<std::uint32_t>(i));
      inc_keys.push_back(keys[i]);
    }
  }

  const std::size_t dim = incumbent_->dim();
  out->dim = dim;
  out->version =
      cand_keys.size() > inc_keys.size() ? candidate_name_ : incumbent_name_;
  out->vectors.assign(keys.size() * dim, 0.0f);
  out->oov.assign(keys.size(), 0);
  stats_.record_candidate(cand_keys.size());
  stats_.record_incumbent(inc_keys.size() + shadow_keys.size());

  // The mirror rides the SAME incumbent lookup, as its tail rows: a
  // shadow costs its keys' lookup work and nothing else. Both lookups run
  // back to back on this thread into per-thread buffers, so the steady
  // state allocates nothing; the latency delta is candidate time minus
  // incumbent time for the two calls.
  const std::size_t inc_only = inc_keys.size();
  inc_keys.insert(inc_keys.end(), shadow_keys.begin(), shadow_keys.end());
  thread_local LookupResult inc, cand;
  double inc_us = 0.0;
  if (!inc_keys.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    lookup_into(incumbent_service_, inc_keys, &inc);
    inc_us = elapsed_us(t0);
    scatter_rows(inc, inc_slots, out);
  }
  double cand_us = 0.0;
  if (!cand_keys.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    lookup_into(candidate_service_, cand_keys, &cand);
    cand_us = elapsed_us(t0);
    scatter_rows(cand, cand_slots, out);
  }

  if (!shadow_keys.empty()) {
    score_shadows(self_probe_ids(shadow_keys), shadow_cand_rows, cand, inc,
                  inc_only, cand_us - inc_us);
  }
  maybe_decide();
}

void CanaryRouter::lookup_ids_into(const std::vector<std::size_t>& ids,
                                   LookupResult* out) {
  route_into(ids, out);
}

void CanaryRouter::lookup_words_into(const std::vector<std::string>& words,
                                     LookupResult* out) {
  route_into(words, out);
}

bool CanaryRouter::probe_topk(const la::Matrix& probes, const float* vec,
                              std::size_t self_probe,
                              std::vector<int>* out) const {
  const std::size_t dim = incumbent_->dim();
  const std::size_t m = probes.rows();
  thread_local std::vector<double> q, scores;
  q.resize(dim);
  for (std::size_t j = 0; j < dim; ++j) q[j] = vec[j];
  if (la::kernels::l2_normalize(q.data(), dim) == 0.0) return false;
  scores.resize(m);
  la::kernels::matvec_rowmajor(probes.data(), m, dim, q.data(),
                               scores.data());

  thread_local std::vector<int> idx;
  idx.clear();
  idx.reserve(m);
  for (std::size_t p = 0; p < m; ++p) {
    if (p != self_probe) idx.push_back(static_cast<int>(p));
  }
  const std::size_t k = std::min(config_.knn_k, idx.size());
  if (k == 0) return false;
  std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(k),
                    idx.end(), [&](int a, int b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;  // deterministic tie-break
                    });
  out->assign(idx.begin(), idx.begin() + static_cast<long>(k));
  return true;
}

void CanaryRouter::score_shadows(
    const std::vector<std::size_t>& shadow_keys,
    const std::vector<std::uint32_t>& shadow_cand_rows,
    const LookupResult& cand, const LookupResult& inc,
    std::size_t mirror_first, double latency_delta_us) {
  const std::size_t dim = incumbent_->dim();
  thread_local std::vector<int> top_cand, top_inc;
  for (std::size_t j = 0; j < shadow_cand_rows.size(); ++j) {
    const std::uint32_t cr = shadow_cand_rows[j];
    if (cand.oov[cr] != 0 || inc.oov[mirror_first + j] != 0) continue;
    const float* vc = cand.row(cr);
    const float* vi = inc.row(mirror_first + j);

    std::size_t self_probe = kNoProbe;
    if (j < shadow_keys.size()) {
      const auto it = probe_index_.find(shadow_keys[j]);
      if (it != probe_index_.end()) self_probe = it->second;
    }
    // Each version's neighbors live in its OWN space (within-space
    // structure, like the paper's k-NN measure), so agreement is
    // invariant to any global rotation — alignment cannot fake it.
    if (!probe_topk(probes_candidate_, vc, self_probe, &top_cand)) continue;
    if (!probe_topk(probes_incumbent_, vi, self_probe, &top_inc)) continue;
    std::size_t overlap = 0;
    for (const int p : top_cand) {
      for (const int q : top_inc) {
        if (p == q) {
          ++overlap;
          break;
        }
      }
    }
    const double k =
        static_cast<double>(std::min(top_cand.size(), top_inc.size()));
    const double agreement = k > 0 ? static_cast<double>(overlap) / k : 0.0;

    double dot = 0.0, nc = 0.0, ni = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      dot += static_cast<double>(vc[d]) * vi[d];
      nc += static_cast<double>(vc[d]) * vc[d];
      ni += static_cast<double>(vi[d]) * vi[d];
    }
    const double denom = std::sqrt(nc) * std::sqrt(ni);
    if (denom == 0.0) continue;
    const double displacement = std::clamp(1.0 - dot / denom, 0.0, 2.0);
    const std::uint64_t key = j < shadow_keys.size()
                                  ? static_cast<std::uint64_t>(shadow_keys[j])
                                  : CanaryStats::kNoKey;
    stats_.record_shadow(agreement, displacement, latency_delta_us, key);
  }
}

void CanaryRouter::maybe_decide() {
  if (!active()) return;
  const std::uint64_t n = stats_.shadows();
  if (n < config_.min_shadows) return;
  const CanaryStatsSnapshot s =
      stats_.snapshot(config_.confidence, /*with_medians=*/false);
  // Displacement lives in [0, 2]; its Hoeffding width is twice the
  // agreement's at the same n.
  const double disp_half = hoeffding_half(s.shadows, 2.0, config_.confidence);

  std::ostringstream detail;
  detail.precision(4);
  detail << "agreement=" << s.mean_agreement << " [" << s.agreement_lower
         << ", " << s.agreement_upper << "] displacement="
         << s.mean_displacement << " shadows=" << s.shadows;

  if (s.agreement_upper <= config_.rollback_agreement) {
    decide(CanaryState::kRolledBack,
           "canary rollback: online agreement confidently below "
           "rollback bound; " +
               detail.str());
  } else if (s.mean_displacement - disp_half > config_.max_displacement) {
    // Neighbor structure agrees but coordinates drifted (e.g. an
    // unaligned rotation): consumers mixing versions would break, so
    // this is a rollback of its own kind.
    decide(CanaryState::kRolledBack,
           "canary rollback: displacement exceeds budget "
           "(max_displacement=" +
               std::to_string(config_.max_displacement) + "); " +
               detail.str());
  } else if (s.agreement_lower >= config_.promote_agreement &&
             s.mean_displacement <= config_.max_displacement) {
    decide(CanaryState::kPromoted,
           "canary promote: online agreement confidently above promote "
           "bound; " +
               detail.str());
  } else if (s.shadows >= config_.max_shadows) {
    const bool good = s.mean_agreement >= config_.promote_agreement &&
                      s.mean_displacement <= config_.max_displacement;
    decide(good ? CanaryState::kPromoted : CanaryState::kRolledBack,
           std::string("canary ") + (good ? "promote" : "rollback") +
               " at shadow budget; " + detail.str());
  }
}

void CanaryRouter::decide(CanaryState terminal, const std::string& reason) {
  std::lock_guard<std::mutex> lock(decide_mu_);
  if (state_.load(std::memory_order_acquire) != CanaryState::kRunning) {
    return;  // someone else already decided
  }
  bool promoted = false;
  std::string final_reason = reason;
  if (terminal == CanaryState::kPromoted) {
    // Identity promote: only the exact snapshot this canary evaluated may
    // go live (same TOCTOU discipline as the offline gate).
    promoted = store_.set_live_snapshot(candidate_);
    if (!promoted) {
      terminal = CanaryState::kRolledBack;
      final_reason +=
          "; promotion aborted: candidate was re-registered during the "
          "canary";
    }
  }
  // The audit trail names the outlier keys, not just the aggregate: a
  // rollback row that says WHICH rows moved furthest is actionable.
  if (final_reason.find("worst_keys=") == std::string::npos) {
    const CanaryStatsSnapshot worst =
        stats_.snapshot(config_.confidence, /*with_medians=*/true);
    if (!worst.worst_keys.empty()) {
      final_reason += "; worst_keys=" + format_worst_keys(worst.worst_keys);
    }
  }
  decision_reason_ = final_reason;
  state_.store(terminal, std::memory_order_release);
  if (!audit_log_.empty()) {
    GateReport row;
    row.old_version = incumbent_name_;
    row.new_version = candidate_name_;
    row.decision = terminal == CanaryState::kPromoted ? GateDecision::kAdmit
                                                      : GateDecision::kReject;
    row.eis = offline_.eis;
    row.one_minus_knn = offline_.one_minus_knn;
    row.rows_compared = stats_.shadows();
    row.promoted = promoted;
    row.reason = final_reason;
    append_audit_csv(audit_log_, row);
  }
}

void CanaryRouter::abort(bool drain) {
  if (drain && state() == CanaryState::kRunning) {
    // Stop NEW requests from routing to the candidate (active() flips
    // false), then let the routed lookups already in flight finish and
    // score their shadows so the terminal status reports everything that
    // was measured. Bounded wait: a wedged consumer must not turn an
    // abort RPC into a hang. seq_cst pairs with InflightGuard (see its
    // comment) so reading inflight == 0 proves later entrants observed
    // the drain.
    draining_.store(true, std::memory_order_seq_cst);
    constexpr auto kDrainTimeout = std::chrono::seconds(5);
    const auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
    while (inflight_.load(std::memory_order_seq_cst) > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const CanaryStatsSnapshot s = stats_.snapshot(config_.confidence);
  decide(CanaryState::kAborted,
         std::string("canary aborted by operator") +
             (drain ? " (drained)" : "") + "; " + s.summary());
}

std::string CanaryRouter::decision_reason() const {
  std::lock_guard<std::mutex> lock(decide_mu_);
  return decision_reason_;
}

// ---- two-phase DeploymentGate::try_promote -----------------------------

std::shared_ptr<CanaryRouter> DeploymentGate::try_promote(
    EmbeddingStore& store, const std::string& candidate_version,
    const LookupService& incumbent_service, const CanaryConfig& canary,
    GateReport* offline) const {
  const SnapshotPtr candidate = store.snapshot(candidate_version);
  ANCHOR_CHECK_MSG(candidate != nullptr,
                   "unknown candidate version '" << candidate_version << "'");
  const SnapshotPtr incumbent = store.live();

  GateReport report;
  if (!incumbent || incumbent == candidate) {
    report.old_version = incumbent ? incumbent->version() : "";
    report.new_version = candidate_version;
    report.decision = GateDecision::kAdmit;
    if (!incumbent) {
      report.promoted = store.set_live_snapshot(candidate);
      report.reason = "no incumbent; promoted without canary";
    } else {
      report.reason = "candidate is already live";
    }
    if (!config_.audit_log.empty()) {
      append_audit_csv(config_.audit_log, report);
    }
    if (offline != nullptr) *offline = report;
    return nullptr;
  }
  ANCHOR_CHECK_MSG(incumbent->dim() == candidate->dim(),
                   "canary requires equal embedding dimensions ("
                       << incumbent->dim() << " vs " << candidate->dim()
                       << ")");

  // Phase 1: the offline gate, verbatim. A reject here never takes any
  // traffic — exactly as before this rung existed.
  report = evaluate(*incumbent, *candidate);
  if (report.decision == GateDecision::kReject) {
    report.reason += "; canary not started (offline reject)";
    if (!config_.audit_log.empty()) {
      append_audit_csv(config_.audit_log, report);
    }
    if (offline != nullptr) *offline = report;
    return nullptr;
  }

  // Phase 2 hand-off: live stays on the incumbent; the router owns the
  // online decision from here.
  report.reason += "; canary started";
  if (!config_.audit_log.empty()) append_audit_csv(config_.audit_log, report);
  if (offline != nullptr) *offline = report;
  return std::make_shared<CanaryRouter>(store, incumbent_service, incumbent,
                                        candidate, report, canary,
                                        config_.audit_log);
}

}  // namespace anchor::serve
