// Instability-gated version promotion — the paper's contribution turned
// into a serving-side control.
//
// Table 1 of the paper shows that the eigenspace instability measure (and,
// more weakly, 1 − k-NN overlap) of an embedding pair predicts how much the
// downstream predictions built on them will churn. The DeploymentGate
// operationalizes that: before a candidate snapshot goes live, it computes
// both measures between the incumbent and the candidate on their shared
// vocabulary and admits, warns, or rejects against configurable thresholds —
// catching a churn-heavy refresh *before* any downstream model retrains,
// which is exactly the decision the paper's introduction asks an embedding-
// server engineer to make.
//
// Every evaluation can be appended to a CSV audit log (core/report-style:
// fixed header, one row per decision) so rollout history is inspectable
// offline.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "serve/embedding_store.hpp"

namespace anchor::serve {

struct GateConfig {
  /// Eigenspace instability thresholds (Definition 2; larger = more churn
  /// expected). Candidates land in [0, warn) → admit, [warn, reject) →
  /// warn-but-admit, [reject, ∞) → reject.
  double eis_warn = 0.05;
  double eis_reject = 0.15;
  /// Thresholds on 1 − k-NN overlap, the paper's second-best predictor.
  double knn_warn = 0.30;
  double knn_reject = 0.60;
  double alpha = 3.0;                // eigenvalue-importance exponent (Tab. 8)
  std::size_t knn_k = 5;             // neighbors per query
  std::size_t knn_queries = 256;     // sampled query words
  std::uint64_t knn_seed = 42;
  /// Vocabulary subsample for the measure computation (0 = full shared
  /// vocab). Measures are O(n·d²); a few thousand rows track the full-vocab
  /// value closely while keeping the gate interactive.
  std::size_t max_rows = 2048;
  /// When non-empty, every evaluation is appended here as a CSV row.
  std::filesystem::path audit_log;
};

enum class GateDecision { kAdmit, kWarn, kReject };

std::string decision_name(GateDecision d);

/// Audit record of one gate evaluation.
struct GateReport {
  std::string old_version;
  std::string new_version;
  GateDecision decision = GateDecision::kAdmit;
  double eis = 0.0;            // eigenspace instability, old vs new
  double one_minus_knn = 0.0;  // 1 − k-NN overlap, old vs new
  std::size_t rows_compared = 0;
  bool promoted = false;       // try_promote flipped live to new_version
  std::string reason;          // human-readable threshold explanation
};

class LookupService;
class CanaryRouter;
struct CanaryConfig;

class DeploymentGate {
 public:
  explicit DeploymentGate(GateConfig config = {});

  /// Computes the measures between incumbent and candidate and applies the
  /// thresholds. Does not touch any store; `promoted` is left false.
  GateReport evaluate(const EmbeddingSnapshot& incumbent,
                      const EmbeddingSnapshot& candidate) const;

  /// Gates `candidate_version` against the store's live snapshot and
  /// promotes it when the decision is admit or warn. With no incumbent the
  /// candidate is admitted unconditionally (there is nothing to churn
  /// against). Appends to the audit log when configured. Throws when the
  /// candidate version is unknown.
  GateReport try_promote(EmbeddingStore& store,
                         const std::string& candidate_version) const;

  /// Two-phase promotion (the ROADMAP's online-canarying rung). Phase 1
  /// runs the offline EIS/k-NN gate exactly like the overload above but
  /// does NOT flip live on admit — instead it returns a running
  /// CanaryRouter that routes `canary.fraction` of lookup keys to the
  /// candidate while mirroring a shadow sample to the incumbent (whose
  /// keys go through `incumbent_service`); the
  /// router auto-promotes (or auto-rolls-back) once the online top-k
  /// agreement estimate crosses the configured confidence bounds
  /// (phase 2). Returns nullptr when phase 1 rejects, when there is no
  /// incumbent (the candidate is promoted outright — nothing to canary
  /// against), or when the candidate is already live; `*offline` always
  /// receives the phase-1 report. Both phases append to the audit log
  /// when configured. Throws on unknown candidate version or dimension
  /// mismatch. Defined in serve/canary.cpp.
  std::shared_ptr<CanaryRouter> try_promote(
      EmbeddingStore& store, const std::string& candidate_version,
      const LookupService& incumbent_service, const CanaryConfig& canary,
      GateReport* offline = nullptr) const;

  const GateConfig& config() const { return config_; }

 private:
  GateConfig config_;
};

/// Appends `report` to a CSV audit log at `path`, writing the header first
/// when the file does not exist yet.
void append_audit_csv(const std::filesystem::path& path,
                      const GateReport& report);

/// Reads back an audit log written by append_audit_csv. Throws on missing
/// file or malformed rows.
std::vector<GateReport> read_audit_csv(const std::filesystem::path& path);

}  // namespace anchor::serve
