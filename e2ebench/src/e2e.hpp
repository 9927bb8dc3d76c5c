// Building blocks of the end-to-end benchmark: seeded request streams, the
// open-loop load generator, reply checkers, child-process control, span
// recording and /proc + METRICS scraping. driver.cpp composes them into
// workloads; selftest.cpp pins the properties the benchmark relies on.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ann/ivf_pq.hpp"
#include "obs/metrics.hpp"
#include "serve/lookup_service.hpp"

namespace e2e {

// ---- deterministic randomness ---------------------------------------------

/// splitmix64: the whole benchmark derives every input from it, so a seed
/// gives the same bytes on any compiler and standard library.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Standard normal (Box-Muller, one value per call).
  double normal() {
    double u1 = uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * uniform());
  }
};

inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng r(seed ^ (salt * 0xd1b54a32d192ed03ULL));
  return r.next();
}

/// Zipf(s) over ranks [0, n): inverse-CDF sampling on a precomputed table.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t sample(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---- request streams --------------------------------------------------------

struct StreamConfig {
  std::size_t total_rows = 0;    // global id space
  std::size_t batch = 32;        // keys per lookup request
  double zipf_s = 1.0;
  double word_frac = 0.05;       // share of requests sent as words
  double oov_frac = 0.25;        // share of words in a word request that are OOV
  std::size_t oov_pool = 256;    // distinct OOV strings
};

/// One lookup request: global row ids, or word strings ("w<global id>" for
/// in-vocabulary rows, anything else out of vocabulary).
struct LookupRequest {
  std::vector<std::size_t> ids;
  std::vector<std::string> words;
  bool is_words() const { return !words.empty(); }
};

/// OOV strings: lowercase letters only, so they never parse as "w<id>".
inline std::vector<std::string> make_oov_pool(std::uint64_t seed, std::size_t n) {
  Rng rng(mix_seed(seed, 0x00f));
  std::vector<std::string> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string w = "x";
    const std::size_t len = 4 + rng.below(6);
    for (std::size_t j = 0; j < len; ++j) {
      w += static_cast<char>('a' + rng.below(26));
    }
    pool.push_back(std::move(w));
  }
  return pool;
}

/// Zipf-skewed lookup stream. Ranks go through a seeded permutation so hot
/// rows are spread over every shard instead of piling onto shard 0.
inline std::vector<LookupRequest> make_lookup_stream(std::uint64_t seed,
                                                     std::size_t count,
                                                     const StreamConfig& c) {
  Rng rng(mix_seed(seed, 0x5a1));
  std::vector<std::size_t> perm(c.total_rows);
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  const Zipf zipf(c.total_rows, c.zipf_s);
  const std::vector<std::string> oov = make_oov_pool(seed, c.oov_pool);
  std::vector<LookupRequest> out(count);
  for (LookupRequest& req : out) {
    const bool words = rng.uniform() < c.word_frac;
    for (std::size_t k = 0; k < c.batch; ++k) {
      const std::size_t id = perm[zipf.sample(rng)];
      if (!words) {
        req.ids.push_back(id);
      } else if (rng.uniform() < c.oov_frac) {
        req.words.push_back(oov[rng.below(oov.size())]);
      } else {
        req.words.push_back("w" + std::to_string(id));
      }
    }
  }
  return out;
}

/// Uniform ids over [0, total_rows) — the TOPK query stream.
inline std::vector<std::uint64_t> make_uniform_ids(std::uint64_t seed,
                                                   std::size_t count,
                                                   std::size_t total_rows) {
  Rng rng(mix_seed(seed, 0x70b));
  std::vector<std::uint64_t> out(count);
  for (auto& id : out) id = rng.below(total_rows);
  return out;
}

// ---- time -------------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleeps until `t_ns`. It never spins: the generator shares the cores
/// with the daemons, and a spinning thread would steal their time. Call
/// set_fine_timer_slack() on the sleeping thread so wake-ups are not
/// rounded up by the kernel's default 50 µs slack (the generator's own
/// lateness is reported separately).
inline void sleep_until_ns(std::int64_t t_ns) {
  for (std::int64_t left = t_ns - now_ns(); left > 0; left = t_ns - now_ns()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(left));
  }
}

/// Sets the calling thread's timer slack to 1 µs.
void set_fine_timer_slack();

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (numpy's default); NaN on empty input.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- open-loop generator ----------------------------------------------------

/// One scheduled operation: when it was due, when a worker actually sent
/// it, when its reply was in, and whether the reply passed its check.
struct OpRecord {
  std::int64_t sched_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool ok = false;
  /// Latency charged to the operation: from its *scheduled* send, so a
  /// stall is charged to every request queued behind it.
  double latency_us() const { return static_cast<double>(end_ns - sched_ns) / 1e3; }
  double lateness_us() const { return static_cast<double>(start_ns - sched_ns) / 1e3; }
  double service_us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

struct PhaseResult {
  std::vector<OpRecord> ops;
  std::int64_t begin_ns = 0;  // first scheduled send
  std::int64_t end_ns = 0;    // last reply
  std::string first_error;    // what the first exception said, if any

  std::size_t failed() const {
    std::size_t n = 0;
    for (const auto& op : ops) n += op.ok ? 0 : 1;
    return n;
  }
  std::vector<double> latencies_us() const {
    std::vector<double> v;
    v.reserve(ops.size());
    for (const auto& op : ops) v.push_back(op.latency_us());
    return v;
  }
  std::vector<double> lateness_us() const {
    std::vector<double> v;
    v.reserve(ops.size());
    for (const auto& op : ops) v.push_back(op.lateness_us());
    return v;
  }
  std::vector<double> service_us() const {
    std::vector<double> v;
    v.reserve(ops.size());
    for (const auto& op : ops) v.push_back(op.service_us());
    return v;
  }
  /// Replies per second over the phase, scheduled start to last reply.
  double achieved_rps() const {
    if (ops.empty() || end_ns <= begin_ns) return 0.0;
    return static_cast<double>(ops.size() - failed()) /
           (static_cast<double>(end_ns - begin_ns) / 1e9);
  }
};

/// Runs `count` operations on a fixed schedule (operation i is due at
/// start + i / rate) over `workers` threads. `op(worker, i)` performs and
/// checks operation i and returns whether it succeeded; an exception
/// counts as a failure. Workers never skip a due operation, so when the
/// system stalls the backlog shows up as lateness and latency, not as a
/// lower offered load (no coordinated omission).
inline PhaseResult run_open_loop(double rate, std::size_t count,
                                 std::size_t workers,
                                 const std::function<bool(std::size_t, std::size_t)>& op) {
  PhaseResult res;
  res.ops.resize(count);
  const double interval_ns = 1e9 / rate;
  const std::int64_t t0 = now_ns() + 2000000;  // 2 ms for the threads to start
  res.begin_ns = t0;
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      set_fine_timer_slack();
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= count) return;
        OpRecord& rec = res.ops[i];
        rec.sched_ns = t0 + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
        sleep_until_ns(rec.sched_ns);
        rec.start_ns = now_ns();
        try {
          rec.ok = op(w, i);
        } catch (const std::exception& e) {
          rec.ok = false;
          std::lock_guard<std::mutex> lock(error_mu);
          if (res.first_error.empty()) res.first_error = e.what();
        }
        rec.end_ns = now_ns();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& op : res.ops) res.end_ns = std::max(res.end_ns, op.end_ns);
  return res;
}

/// Closed loop: every worker sends its next operation as soon as the
/// previous reply is in, for `seconds`. The reply rate is the capacity of
/// `workers` connections. `op(worker, i)` as in run_open_loop; operations
/// are numbered in send order.
inline PhaseResult run_closed_loop(double seconds, std::size_t workers,
                                   const std::function<bool(std::size_t, std::size_t)>& op) {
  PhaseResult res;
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::vector<OpRecord> mine;
      std::string error;
      while (now_ns() < deadline) {
        OpRecord rec;
        rec.sched_ns = rec.start_ns = now_ns();
        try {
          rec.ok = op(w, next.fetch_add(1));
        } catch (const std::exception& e) {
          rec.ok = false;
          if (error.empty()) error = e.what();
        }
        rec.end_ns = now_ns();
        mine.push_back(rec);
      }
      std::lock_guard<std::mutex> lock(mu);
      res.ops.insert(res.ops.end(), mine.begin(), mine.end());
      if (res.first_error.empty()) res.first_error = error;
    });
  }
  for (auto& t : threads) t.join();
  res.begin_ns = t0;
  for (const auto& op : res.ops) res.end_ns = std::max(res.end_ns, op.end_ns);
  return res;
}

// ---- reply checking ---------------------------------------------------------

/// Expected rows of one snapshot version of one shard, dequantized by the
/// same code the daemon serves with, plus the OOV vectors that shard
/// synthesizes for the stream's OOV words.
struct ShardReference {
  std::size_t rows = 0;
  std::size_t dim = 0;
  std::vector<float> table;                       // rows × dim
  std::map<std::string, std::vector<float>> oov;  // word → synthesized vector
  const float* row(std::size_t i) const { return table.data() + i * dim; }
};

/// Bit-exact checker for lookup replies. refs[shard][version] holds the
/// reference for each version index; a row is accepted when it equals the
/// reference under any version in the `allowed` bit mask (a rollout flips
/// shards one at a time, so two versions can be live at once).
class LookupChecker {
 public:
  LookupChecker(std::vector<std::vector<ShardReference>> refs,
                std::size_t rows_per_shard, std::size_t num_shards)
      : refs_(std::move(refs)), rows_per_shard_(rows_per_shard), num_shards_(num_shards) {}

  /// `home_shard(word)` names the shard that synthesizes an OOV word.
  /// `fold` maps every key onto shard 0 (replies of a single backend that
  /// was sent ids modulo rows_per_shard).
  bool check(const LookupRequest& req, const anchor::serve::LookupResult& res,
             std::uint32_t allowed,
             const std::function<std::size_t(const std::string&)>& home_shard,
             bool fold = false) const {
    const std::size_t n = req.is_words() ? req.words.size() : req.ids.size();
    if (res.size() != n) return false;
    const std::size_t dim = refs_[0][0].dim;
    if (res.dim != dim || res.vectors.size() != n * dim) return false;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t shard = 0;
      std::size_t local = 0;
      const std::string* oov_word = nullptr;
      if (!req.is_words()) {
        if (!locate(req.ids[i], fold, &shard, &local)) return false;
      } else {
        std::size_t id = 0;
        if (anchor::serve::parse_synthetic_word_id(req.words[i], &id)) {
          if (!locate(id, fold, &shard, &local)) return false;
        } else {
          oov_word = &req.words[i];
          shard = fold ? 0 : home_shard(req.words[i]);
        }
      }
      if (res.oov[i] != (oov_word != nullptr ? anchor::serve::kLookupFlagOov : 0)) {
        return false;
      }
      bool matched = false;
      for (std::size_t v = 0; v < refs_[shard].size() && !matched; ++v) {
        if ((allowed & (1u << v)) == 0) continue;
        const ShardReference& ref = refs_[shard][v];
        const float* want = nullptr;
        if (oov_word != nullptr) {
          const auto it = ref.oov.find(*oov_word);
          if (it == ref.oov.end()) continue;
          want = it->second.data();
        } else {
          want = ref.row(local);
        }
        matched = std::memcmp(want, res.row(i), dim * sizeof(float)) == 0;
      }
      if (!matched) return false;
    }
    return true;
  }

 private:
  bool locate(std::size_t id, bool fold, std::size_t* shard, std::size_t* local) const {
    if (fold) {
      *shard = 0;
      *local = id % rows_per_shard_;
      return true;
    }
    if (id >= rows_per_shard_ * num_shards_) return false;
    *shard = id / rows_per_shard_;
    *local = id % rows_per_shard_;
    return true;
  }

  std::vector<std::vector<ShardReference>> refs_;
  std::size_t rows_per_shard_;
  std::size_t num_shards_;
};

/// A TOPK reply is well formed when it has k hits, every id is in range,
/// no shard was missing, and exact distances do not decrease.
inline bool topk_well_formed(const anchor::ann::TopKResult& r, std::size_t k,
                             std::uint64_t total_rows) {
  if (r.hits.size() != k || (r.flags & anchor::ann::kTopKFlagPartial) != 0) return false;
  for (std::size_t i = 0; i < r.hits.size(); ++i) {
    if (r.hits[i].id >= total_rows) return false;
    if (!(r.hits[i].exact >= 0.0f)) return false;
    if (i > 0 && r.hits[i].exact < r.hits[i - 1].exact) return false;
  }
  return true;
}

/// Exact top-k ids by (L2², id) over `table` (rows × dim).
inline std::vector<std::uint64_t> exact_topk(const std::vector<float>& table,
                                             std::size_t dim, const float* q,
                                             std::size_t k) {
  const std::size_t rows = table.size() / dim;
  std::vector<std::pair<float, std::uint64_t>> best;
  best.reserve(k + 1);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* x = table.data() + r * dim;
    float d = 0.0f;
    for (std::size_t j = 0; j < dim; ++j) {
      const float t = x[j] - q[j];
      d += t * t;
    }
    const std::pair<float, std::uint64_t> cand{d, r};
    if (best.size() < k || cand < best.back()) {
      best.insert(std::upper_bound(best.begin(), best.end(), cand), cand);
      if (best.size() > k) best.pop_back();
    }
  }
  std::vector<std::uint64_t> ids;
  for (const auto& b : best) ids.push_back(b.second);
  return ids;
}

/// Expected gate outcome of one rollout of `candidate` in the promotion
/// schedule: "v3-bad" must be refused, every other version admitted.
inline bool expect_admit(const std::string& candidate) { return candidate != "v3-bad"; }

/// True when the observed rollout outcome matches the expectation.
inline bool gate_outcome_ok(const std::string& candidate, bool admitted) {
  return admitted == expect_admit(candidate);
}

// ---- spans ------------------------------------------------------------------

/// One benchmark-side span: a public call into one layer. Spans of one
/// request share `request`; `parent` is the span that caused it (0 = root).
struct Span {
  std::uint64_t request = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store, written out when the benchmark ends.
class SpanLog {
 public:
  std::uint64_t record(std::uint64_t request, std::uint64_t parent, const char* name,
                       std::int64_t start_ns, std::int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back({request, id, parent, name, start_ns, end_ns});
    return id;
  }
  /// Durations (µs) of every span named `name`.
  std::vector<double> durations_us(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
    return out;
  }
  /// CSV: request,span,parent,name,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- child processes --------------------------------------------------------

/// A daemon started as a real child process; its stderr goes to
/// `log_path`. The destructor stops it (SIGTERM, then SIGKILL) and reaps
/// it, so every exit path of the benchmark leaves no process behind. The
/// child gets SIGKILL if the thread that started it dies, so start
/// children from the main thread.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Reads stdout until the "listening on 127.0.0.1:<port>" line and
  /// returns the port; throws (after stopping the child) when it exits or
  /// stays silent for `timeout_ms`.
  std::uint16_t wait_ready(int timeout_ms);

  int pid() const { return pid_; }
  /// Graceful stop; returns the exit status (or -1 if it had to be killed).
  int stop();

 private:
  std::string name_;
  std::string log_path_;
  int pid_ = -1;
  int out_fd_ = -1;
};

/// Kills every live child with SIGKILL. Async-signal-safe; the SIGINT /
/// SIGTERM handler calls it before exiting.
void kill_all_children();

// ---- scraping -----------------------------------------------------------------

/// CPU time (user + system) of a process, in microseconds.
double proc_cpu_us(int pid);
/// Peak resident set (VmHWM) of a process, in MiB.
double proc_peak_rss_mb(int pid);

/// Named values of one METRICS scrape: counters and gauges by name, plus
/// histograms.
struct Scrape {
  std::map<std::string, double> values;
  std::map<std::string, anchor::obs::HistogramSnapshot> hists;
  double value(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};

Scrape to_scrape(const anchor::obs::MetricsReport& report);

}  // namespace e2e
