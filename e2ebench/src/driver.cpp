// End-to-end benchmark driver. Starts anchor_router and two single-replica
// anchor_served backends as child processes, drives open-loop traffic at
// them, checks every reply against an in-process reference, and prints
// every metric by name with its unit. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   e2e_driver --workload lookup_zipf --seed 1 --seconds 16 --trace 0
//              --bin-dir <dir with anchor_served, anchor_router> --out-dir <dir>
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the same
// seeded stream down a ladder of public entry points (LookupService or
// AnnService in process → AsyncLookupService → net::Client → ClusterClient
// → router) with spans around each call, and reports per-layer metrics.
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>

#include "ann/ann_service.hpp"
#include "cluster/cluster_client.hpp"
#include "cluster/shard_map.hpp"
#include "core/measures.hpp"
#include "e2e.hpp"
#include "embed/io.hpp"
#include "la/kernels.hpp"
#include "la/svd.hpp"
#include "net/client.hpp"
#include "obs/heavy_hitters.hpp"
#include "serve/batcher.hpp"
#include "serve/deployment_gate.hpp"
#include "serve/embedding_store.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace anchor;
using e2e::now_ns;

constexpr std::size_t kShards = 2;
constexpr std::size_t kDim = 64;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kAnnRows = 6250;  // rows of the in-process ANN index
constexpr int kReadyTimeoutMs = 60000;
constexpr int kRpcTimeoutMs = 10000;
const char* const kVersions[] = {"v1", "v2-good", "v3-bad"};

/// Workload sizes and rates. Every number here is recorded in
/// e2ebench/README.md; change both together.
struct Spec {
  std::string name;
  bool topk = false;            // primary read is TOPK by id (else a lookup batch)
  bool rollouts = false;        // run the promotion schedule beside the reads
  std::size_t rows_per_shard = 0;
  std::size_t versions = 1;     // v1 [, v2-good, v3-bad]
  double rate = 0.0;            // fixed offered rate, requests/s
  double p95_limit_us = 0.0;    // goodput latency limit
  double recall_floor = 0.0;    // TOPK recall@10 must stay at or above this
  int rollout_period_ms = 0;
  int setups = 0;               // deployments started per untraced run (median reported)
};

Spec spec_for(const std::string& workload) {
  Spec s;
  s.name = workload;
  if (workload == "lookup_zipf") {
    s.rows_per_shard = 50000;
    s.rate = 3500.0;
    s.p95_limit_us = 20000.0;
    s.setups = 7;
  } else if (workload == "topk_uniform") {
    s.topk = true;
    s.rows_per_shard = kAnnRows;
    s.rate = 1500.0;
    s.p95_limit_us = 20000.0;
    s.recall_floor = 0.9;
    s.setups = 5;
  } else if (workload == "promote_under_load") {
    s.rollouts = true;
    s.rows_per_shard = 50000;
    s.versions = 3;
    s.rate = 3500.0;
    s.p95_limit_us = 20000.0;
    s.rollout_period_ms = 3000;
    s.setups = 5;
  } else {
    throw std::runtime_error("unknown workload '" + workload +
                             "' (lookup_zipf, topk_uniform, promote_under_load)");
  }
  return s;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 16.0;
  bool trace = false;
  std::string bin_dir;
  std::string out_dir;
  std::string source_id = "unknown";
};

/// Load-generator threads, one connection each: min(4, nproc).
std::size_t load_workers() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// Which result line a metric goes to. Every metric is printed and written
/// to result.json; the last stdout line holds the end-to-end metrics of an
/// untraced run, or the per-layer metrics of a traced one, which every
/// workload reports. kExtra marks the few that only some workloads measure.
enum class Kind { kEndToEnd, kLayer, kExtra };

/// Every metric printed, in order, with its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  Kind kind;
};

struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit,
           Kind kind = Kind::kLayer) {
    metrics.push_back({name, value, unit, kind});
  }
  void count(std::size_t attempted_ops, std::size_t failed_ops, const std::string& what,
             const std::string& error = "") {
    attempted += attempted_ops;
    failed += failed_ops;
    if (failed_ops > 0) {
      problems.push_back(what + ": " + std::to_string(failed_ops) + " of " +
                         std::to_string(attempted_ops) + " failed" +
                         (error.empty() ? " (reply did not match its check)" : " (" + error + ")"));
    }
  }
  void count(const e2e::PhaseResult& phase, const std::string& what) {
    count(phase.ops.size(), phase.failed(), what, phase.first_error);
  }
};

// ---- inputs -------------------------------------------------------------------

/// Clustered rows (256 Gaussian centres shared by both shards of a version)
/// so IVF cells and k-NN neighbourhoods are meaningful. v2-good is v1 plus
/// 1% noise; v3-bad is an independent draw.
embed::Embedding make_rows(std::uint64_t seed, std::size_t version, std::size_t shard,
                           std::size_t rows) {
  const std::size_t family = version == 2 ? 2 : 0;
  e2e::Rng centre_rng(e2e::mix_seed(seed, 0xc0 + family));
  std::vector<float> centres(256 * kDim);
  for (float& c : centres) c = static_cast<float>(centre_rng.normal());
  e2e::Rng rng(e2e::mix_seed(seed, 0x100 + family * 16 + shard));
  embed::Embedding e(rows, kDim);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* c = centres.data() + rng.below(256) * kDim;
    float* row = e.row(r);
    for (std::size_t j = 0; j < kDim; ++j) {
      row[j] = c[j] + 0.5f * static_cast<float>(rng.normal());
    }
  }
  if (version == 1) {
    e2e::Rng noise(e2e::mix_seed(seed, 0x200 + shard));
    for (float& x : e.data) x += 0.01f * static_cast<float>(noise.normal());
  }
  return e;
}

serve::SnapshotConfig snapshot_config() {
  serve::SnapshotConfig c;  // what `anchor_served --bits 8` builds
  c.bits = 8;
  return c;
}

/// Shard map text for the deployment (placeholder ports give the same
/// word → home-shard routing, which depends only on the shard count).
std::string map_text(const std::vector<std::uint16_t>& ports, std::size_t rows) {
  std::string t = "v1";
  for (std::size_t s = 0; s < kShards; ++s) {
    t += ",127.0.0.1:" + std::to_string(ports[s]) + ":" + std::to_string(s * rows) + ":" +
         std::to_string((s + 1) * rows);
  }
  return t;
}

/// Runs fn(shard) for every shard, one thread each; rethrows the first
/// exception once all have finished.
void for_each_shard(const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    threads.emplace_back([&, s] {
      try {
        fn(s);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Every row of `snap` as served, plus the vectors it synthesizes for the
/// stream's OOV words.
e2e::ShardReference reference_of(const serve::EmbeddingSnapshot& snap,
                                 const std::vector<std::string>& oov_pool) {
  e2e::ShardReference ref;
  ref.rows = snap.vocab_size();
  ref.dim = snap.dim();
  ref.table.resize(ref.rows * ref.dim);
  std::vector<std::size_t> ids(ref.rows);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  snap.copy_rows(ids.data(), ids.size(), ref.table.data());
  for (const std::string& w : oov_pool) {
    std::vector<float> vec(ref.dim);
    snap.synthesize_oov(w, vec.data());
    ref.oov[w] = std::move(vec);
  }
  return ref;
}

struct Inputs {
  Spec spec;
  std::vector<std::vector<std::string>> files;  // [shard][version]
  std::vector<std::unique_ptr<serve::EmbeddingStore>> stores;  // per shard, live v1
  std::vector<double> load_s;                   // EmbeddingStore::load_version times
  std::vector<std::vector<e2e::ShardReference>> refs;
  std::vector<std::string> oov_pool;
  cluster::ShardMap home_map;
  std::unique_ptr<e2e::LookupChecker> checker;
  std::vector<e2e::LookupRequest> lookups;      // lookup workloads
  std::vector<std::uint64_t> topk_ids;          // topk workload

  std::size_t total_rows() const { return spec.rows_per_shard * kShards; }
  std::size_t home_shard(const std::string& w) const { return home_map.shard_of_word(w); }
};

Inputs make_inputs(const Options& opt, const Spec& spec, std::size_t stream_len) {
  Inputs in;
  in.spec = spec;
  const std::string data_dir = opt.out_dir + "/data";
  std::filesystem::create_directories(data_dir);
  in.files.assign(kShards, std::vector<std::string>(spec.versions));
  std::vector<std::thread> writers;
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::size_t v = 0; v < spec.versions; ++v) {
      in.files[s][v] = data_dir + "/shard" + std::to_string(s) + "-" + kVersions[v] + ".vec";
      writers.emplace_back([&, s, v] {
        embed::save_text(make_rows(opt.seed, v, s, spec.rows_per_shard), in.files[s][v]);
      });
    }
  }
  for (auto& t : writers) t.join();

  in.oov_pool = e2e::make_oov_pool(opt.seed, e2e::StreamConfig{}.oov_pool);
  in.home_map = cluster::ShardMap::parse(map_text({1, 2}, spec.rows_per_shard));
  in.refs.resize(kShards);
  // One loader per shard, as the two backends load theirs side by side.
  in.stores.resize(kShards);
  in.load_s.assign(kShards * spec.versions, 0.0);
  for_each_shard([&](std::size_t s) {
    in.stores[s] = std::make_unique<serve::EmbeddingStore>();
    for (std::size_t v = 0; v < spec.versions; ++v) {
      const std::int64_t t0 = now_ns();
      in.stores[s]->load_version(kVersions[v], in.files[s][v], snapshot_config());
      in.load_s[s * spec.versions + v] = static_cast<double>(now_ns() - t0) / 1e9;
      in.refs[s].push_back(reference_of(*in.stores[s]->snapshot(kVersions[v]), in.oov_pool));
    }
  });
  in.checker = std::make_unique<e2e::LookupChecker>(in.refs, spec.rows_per_shard, kShards);

  if (spec.topk) {
    in.topk_ids = e2e::make_uniform_ids(opt.seed, stream_len, in.total_rows());
  } else {
    e2e::StreamConfig sc;
    sc.total_rows = in.total_rows();
    in.lookups = e2e::make_lookup_stream(opt.seed, stream_len, sc);
  }
  return in;
}

/// The request folded onto shard 0's local id space (single-backend rungs).
e2e::LookupRequest fold(const e2e::LookupRequest& req, std::size_t rows) {
  e2e::LookupRequest out;
  for (std::size_t id : req.ids) out.ids.push_back(id % rows);
  for (const std::string& w : req.words) {
    std::size_t id = 0;
    out.words.push_back(serve::parse_synthetic_word_id(w, &id) ? "w" + std::to_string(id % rows)
                                                               : w);
  }
  return out;
}

// ---- deployment ---------------------------------------------------------------

struct Deployment {
  std::vector<std::unique_ptr<e2e::Child>> backends;
  std::unique_ptr<e2e::Child> router;
  std::vector<std::uint16_t> backend_ports;
  std::uint16_t router_port = 0;
  std::string map;

  std::vector<int> pids() const {
    std::vector<int> p;
    if (router) p.push_back(router->pid());
    for (const auto& b : backends) p.push_back(b->pid());
    return p;
  }
  void stop() {
    if (router) router->stop();
    for (auto& b : backends) b->stop();
  }
};

/// Spawn → every daemon listening → warmed. The topk workload trains each
/// backend's IVF-PQ index here, with a direct untimed TOPK per backend, so
/// no router timeout applies to training.
std::unique_ptr<Deployment> start_deployment(const Options& opt, const Inputs& in, int index) {
  auto dep = std::make_unique<Deployment>();
  const std::int64_t t0 = now_ns();
  const auto lap = [&](const char* what) {
    std::cerr << "setup " << index << " " << what << " at "
              << static_cast<double>(now_ns() - t0) / 1e9 << " s\n";
  };
  const std::string logs = opt.out_dir + "/logs";
  std::filesystem::create_directories(logs);
  for (std::size_t s = 0; s < kShards; ++s) {
    std::string stores;
    for (std::size_t v = 0; v < in.spec.versions; ++v) {
      stores += (v ? "," : "") + std::string(kVersions[v]) + "=" + in.files[s][v];
    }
    dep->backends.push_back(std::make_unique<e2e::Child>(
        std::vector<std::string>{opt.bin_dir + "/anchor_served", "--stores", stores, "--bits", "8",
                                 "--port", "0"},
        logs + "/backend" + std::to_string(s) + "-setup" + std::to_string(index) + ".stderr"));
  }
  for (auto& b : dep->backends) dep->backend_ports.push_back(b->wait_ready(kReadyTimeoutMs));
  lap("backends listening");
  dep->map = map_text(dep->backend_ports, in.spec.rows_per_shard);
  dep->router = std::make_unique<e2e::Child>(
      std::vector<std::string>{opt.bin_dir + "/anchor_router", "--backends",
                               dep->map.substr(dep->map.find(',') + 1), "--port", "0"},
      logs + "/router-setup" + std::to_string(index) + ".stderr");
  dep->router_port = dep->router->wait_ready(kReadyTimeoutMs);
  lap("router listening");

  if (in.spec.topk) {
    for_each_shard([&](std::size_t s) {
      net::Client("127.0.0.1", dep->backend_ports[s]).topk_id(0, kTopK);
    });
    lap("indexes trained");
    net::Client c("127.0.0.1", dep->router_port, kRpcTimeoutMs);
    for (std::uint64_t i = 0; i < 64; ++i) c.topk_id(i * 97 % in.total_rows(), kTopK);
  } else {
    net::Client c("127.0.0.1", dep->router_port, kRpcTimeoutMs);
    e2e::StreamConfig sc;
    sc.total_rows = in.total_rows();
    for (const auto& req : e2e::make_lookup_stream(opt.seed ^ 0x77a, 512, sc)) {
      if (req.is_words()) {
        c.lookup_words(req.words);
      } else {
        c.lookup_ids(req.ids);
      }
    }
  }
  lap("warm");
  return dep;
}

// ---- scraping -------------------------------------------------------------------

struct ScrapePoint {
  e2e::Scrape router;
  std::vector<e2e::Scrape> backends;
  double router_cpu_us = 0.0;
  double backend_cpu_us = 0.0;
};

ScrapePoint scrape(const Deployment& dep) {
  ScrapePoint p;
  p.router = e2e::to_scrape(net::Client("127.0.0.1", dep.router_port, kRpcTimeoutMs).metrics());
  for (std::uint16_t port : dep.backend_ports) {
    p.backends.push_back(e2e::to_scrape(net::Client("127.0.0.1", port, kRpcTimeoutMs).metrics()));
  }
  p.router_cpu_us = e2e::proc_cpu_us(dep.router->pid());
  for (const auto& b : dep.backends) p.backend_cpu_us += e2e::proc_cpu_us(b->pid());
  return p;
}

double backend_delta(const ScrapePoint& a, const ScrapePoint& b, const std::string& name) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.backends.size(); ++i) {
    d += b.backends[i].value(name) - a.backends[i].value(name);
  }
  return d;
}

/// Observations recorded between two scrapes, merged over the backends.
obs::HistogramSnapshot backend_hist_delta(const ScrapePoint& a, const ScrapePoint& b,
                                          const std::string& name) {
  obs::HistogramSnapshot merged;
  for (std::size_t i = 0; i < a.backends.size(); ++i) {
    const auto ai = a.backends[i].hists.find(name);
    const auto bi = b.backends[i].hists.find(name);
    if (bi == b.backends[i].hists.end()) continue;
    obs::HistogramSnapshot d = bi->second;
    if (ai != a.backends[i].hists.end()) {
      d.count -= std::min(d.count, ai->second.count);
      d.sum_units -= std::min(d.sum_units, ai->second.sum_units);
      for (std::size_t k = 0; k < d.counts.size() && k < ai->second.counts.size(); ++k) {
        d.counts[k] -= std::min(d.counts[k], ai->second.counts[k]);
      }
    }
    merged.merge(d);
  }
  return merged;
}

double trace_spans_delta(const ScrapePoint& a, const ScrapePoint& b) {
  const std::string name = "anchor_trace_spans_total";
  return b.router.value(name) - a.router.value(name) + backend_delta(a, b, name);
}

/// Per-layer metrics from the METRICS RPC and /proc over one timed phase.
void report_scraped(const ScrapePoint& a, const ScrapePoint& b, const e2e::PhaseResult& phase,
                    bool topk, Report* rep) {
  const double reqs = static_cast<double>(phase.ops.size());
  // Keys the generator asked for: one query row per TOPK, a batch per lookup.
  const double keys_sent = topk ? reqs : reqs * static_cast<double>(e2e::StreamConfig{}.batch);
  const double batches = backend_delta(a, b, "anchor_batches_total");
  rep->add("serve.keys_per_batch",
           batches > 0 ? backend_delta(a, b, "anchor_lookup_requests_total") / batches : 0.0,
           "keys");
  const double hits = backend_delta(a, b, "anchor_cache_hits_total");
  const double misses = backend_delta(a, b, "anchor_cache_misses_total");
  rep->add("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac");
  rep->add("serve.backend_service_p50_us",
           backend_hist_delta(a, b, "anchor_service_latency_us").quantile(0.5), "us");
  rep->add("serve.backend_batcher_p50_us",
           backend_hist_delta(a, b, "anchor_batcher_latency_us").quantile(0.5), "us");
  // Summed over the shards; 0 where the workload sends no TOPK.
  const auto per_read = [&](const std::string& name) {
    const obs::HistogramSnapshot h = backend_hist_delta(a, b, name);
    return h.count > 0 ? h.mean() * static_cast<double>(h.count) / reqs : 0.0;
  };
  rep->add("ann.cells_probed_per_read", per_read("anchor_topk_cells_probed"), "cells");
  rep->add("ann.shortlist_per_read", per_read("anchor_topk_shortlist_size"), "rows");
  const auto router_delta = [&](const std::string& n) { return b.router.value(n) - a.router.value(n); };
  rep->add("cluster.retries", router_delta("anchor_router_retries_total"), "count");
  rep->add("cluster.failovers", router_delta("anchor_router_failovers_total"), "count");
  rep->add("cluster.degraded_lookups", router_delta("anchor_router_degraded_lookups_total"),
           "count");
  rep->add("obs.key_load_records_per_key",
           backend_delta(a, b, "anchor_key_load_records_total") / keys_sent,
           "records/key");
  rep->add("proc.router_cpu_us_per_req", (b.router_cpu_us - a.router_cpu_us) / reqs, "us");
  rep->add("proc.backend_cpu_us_per_req", (b.backend_cpu_us - a.backend_cpu_us) / reqs, "us");
  rep->add("gen.lateness_p99_us", e2e::quantile(phase.lateness_us(), 0.99), "us");
}

// ---- traffic ----------------------------------------------------------------------

/// Versions whose rows may be served right now, as a bit mask over
/// kVersions. A rollout widens it to {old, new} while shards flip.
std::atomic<std::uint32_t> g_allowed{1u};

struct Traffic {
  const Inputs& in;
  std::size_t next = 0;  // next unused stream position

  std::size_t take(std::size_t n) {
    const std::size_t first = next;
    next += n;
    return first;
  }
  std::size_t stream_len() const { return in.spec.topk ? in.topk_ids.size() : in.lookups.size(); }
  const e2e::LookupRequest& lookup(std::size_t i) const { return in.lookups[i % in.lookups.size()]; }
  std::uint64_t topk_id(std::size_t i) const { return in.topk_ids[i % in.topk_ids.size()]; }
};

/// Sends stream position `at` as the workload's primary read on `client`
/// (the router, or a ClusterClient) and checks the reply.
template <typename ClientT>
bool primary_read(ClientT& client, const Traffic& tr, std::size_t at) {
  const Inputs& in = tr.in;
  if (in.spec.topk) {
    const std::uint64_t id = tr.topk_id(at);
    const auto r = client.topk_id(id, kTopK);
    return e2e::topk_well_formed(r, kTopK, in.total_rows());
  }
  const std::uint32_t allowed_at_send = g_allowed.load();
  const auto& req = tr.lookup(at);
  const auto r = req.is_words() ? client.lookup_words(req.words) : client.lookup_ids(req.ids);
  return in.checker->check(req, r, allowed_at_send | g_allowed.load(),
                           [&](const std::string& word) { return in.home_shard(word); });
}

std::vector<std::unique_ptr<net::Client>> router_clients(const Deployment& dep,
                                                         std::size_t workers,
                                                         double trace_sampling = 0.0) {
  std::vector<std::unique_ptr<net::Client>> clients;
  for (std::size_t w = 0; w < workers; ++w) {
    clients.push_back(std::make_unique<net::Client>("127.0.0.1", dep.router_port, kRpcTimeoutMs));
    clients.back()->set_trace_sampling(trace_sampling);
  }
  return clients;
}

/// One open-loop phase of the workload's primary read through the router.
e2e::PhaseResult router_phase(Traffic& tr, const Deployment& dep, double rate, double seconds,
                              std::size_t workers) {
  const std::size_t count = std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  const std::size_t first = tr.take(count);
  auto clients = router_clients(dep, workers);
  return e2e::run_open_loop(rate, count, workers, [&](std::size_t w, std::size_t i) {
    return primary_read(*clients[w], tr, first + i);
  });
}

/// A goodput step passes when nothing failed, p95 latency is within the
/// limit, and the backlog is not growing: p95 lateness over the second
/// half of the step is within the limit too. Both tests use p95 and a
/// generous limit because on a shared virtual machine the daemons stall for
/// 5-30 ms about once a second; near saturation one stall leaves a drain of
/// a few hundred ms, which a p99 test would read as overload.
bool phase_passes(const e2e::PhaseResult& p, double limit_us) {
  if (p.failed() > 0) return false;
  if (e2e::quantile(p.latencies_us(), 0.95) > limit_us) return false;
  std::vector<double> tail;
  for (std::size_t i = p.ops.size() / 2; i < p.ops.size(); ++i) {
    tail.push_back(p.ops[i].lateness_us());
  }
  return e2e::quantile(tail, 0.95) <= limit_us;
}

/// Reply rate of `workers` closed-loop connections through the router.
e2e::PhaseResult capacity_phase(Traffic& tr, const Deployment& dep, double seconds,
                                std::size_t workers) {
  auto clients = router_clients(dep, workers);
  const std::size_t first = tr.next;
  e2e::PhaseResult res = e2e::run_closed_loop(seconds, workers, [&](std::size_t w, std::size_t i) {
    return primary_read(*clients[w], tr, first + i);
  });
  tr.take(res.ops.size());
  return res;
}

/// Goodput: the highest rate on a ladder of 0.9, 0.8, ... times the
/// closed-loop capacity that meets the p95 limit without a growing backlog;
/// returns the replies/s achieved at that rate.
double goodput(Traffic& tr, const Deployment& dep, const Spec& spec, double capacity_seconds,
               double step_seconds, std::size_t workers, Report* rep) {
  const e2e::PhaseResult cap = capacity_phase(tr, dep, capacity_seconds, workers);
  rep->count(cap, "capacity phase");
  const double capacity = cap.achieved_rps();
  std::cerr << "capacity " << capacity << " replies/s over " << capacity_seconds << " s\n";
  double achieved = 0.0;
  for (int tenth = 9; tenth >= 1; --tenth) {
    const double rate = capacity * tenth / 10;
    const e2e::PhaseResult r = router_phase(tr, dep, rate, step_seconds, workers);
    rep->count(r, "goodput step");
    achieved = r.achieved_rps();
    const bool pass = phase_passes(r, spec.p95_limit_us);
    std::cerr << "goodput step rate=" << rate << " achieved=" << achieved
              << " p95_us=" << e2e::quantile(r.latencies_us(), 0.95)
              << " lateness_p95_us=" << e2e::quantile(r.lateness_us(), 0.95)
              << (pass ? " pass" : " fail") << "\n";
    if (pass) return achieved;
  }
  // Not even a tenth of capacity passes: report what that step achieved.
  return achieved;
}

// ---- promotion schedule -------------------------------------------------------------

struct RolloutLog {
  std::vector<double> admitted_ms;
  std::vector<double> refused_ms;
  std::size_t attempted = 0;
  std::size_t wrong = 0;
  std::size_t live = 0;  // index into kVersions
  std::size_t cycle = 0;
};

std::size_t version_index(const std::string& v) {
  for (std::size_t i = 0; i < 3; ++i) {
    if (v == kVersions[i]) return i;
  }
  return 0;
}

/// One router rollout of the next version in the cycle v2-good, v3-bad, v1,
/// timed from rollout_start sent to the terminal state seen.
void one_rollout(net::Client& ctl, RolloutLog* log) {
  static const char* const cycle[] = {"v2-good", "v3-bad", "v1"};
  const std::string cand = cycle[log->cycle++ % 3];
  const std::size_t ci = version_index(cand);
  if (e2e::expect_admit(cand)) g_allowed.fetch_or(1u << ci);
  const std::int64_t t0 = now_ns();
  net::RolloutStatusReport rs = ctl.rollout_start(cand, 0);
  while (!rs.terminal()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    rs = ctl.rollout_status();
  }
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;
  const bool admitted = rs.state == net::RolloutState::kCompleted;
  ++log->attempted;
  if (!e2e::gate_outcome_ok(cand, admitted)) {
    ++log->wrong;
    std::cerr << "rollout of " << cand << " " << (admitted ? "admitted" : "refused")
              << " (wrong): " << rs.reason << "\n";
  }
  if (admitted) log->live = ci;
  (admitted ? log->admitted_ms : log->refused_ms).push_back(ms);
  g_allowed.store(1u << log->live);
}

/// Runs `body` while the main thread performs rollouts on a fixed period.
/// Children stay owned by the main thread (see e2e::Child).
template <typename Body>
void with_rollouts(const Deployment& dep, const Spec& spec, RolloutLog* log, Body body) {
  if (!spec.rollouts) {
    body();
    return;
  }
  std::atomic<bool> done{false};
  std::exception_ptr err;
  std::thread runner([&] {
    try {
      body();
    } catch (...) {
      err = std::current_exception();
    }
    done = true;
  });
  try {
    net::Client ctl("127.0.0.1", dep.router_port, 60000);
    std::int64_t next = now_ns() + std::int64_t{spec.rollout_period_ms} * 500000;
    while (!done) {
      if (now_ns() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      one_rollout(ctl, log);
      next += std::int64_t{spec.rollout_period_ms} * 1000000;
    }
  } catch (...) {
    runner.join();
    throw;
  }
  runner.join();
  if (err) std::rethrow_exception(err);
}

/// TOPK recall@10 of the router against an exact scan of the rows the
/// backends serve, on a fixed sample of the query stream.
double topk_recall(const Inputs& in, std::uint16_t router_port, std::size_t queries) {
  std::vector<float> all;
  for (std::size_t s = 0; s < kShards; ++s) {
    all.insert(all.end(), in.refs[s][0].table.begin(), in.refs[s][0].table.end());
  }
  net::Client c("127.0.0.1", router_port, kRpcTimeoutMs);
  double hit = 0.0;
  for (std::size_t q = 0; q < queries; ++q) {
    const std::uint64_t id = in.topk_ids[q];
    const auto exact = e2e::exact_topk(all, kDim, all.data() + id * kDim, kTopK);
    const auto got = c.topk_id(id, kTopK);
    for (const auto& h : got.hits) {
      hit += std::find(exact.begin(), exact.end(), h.id) != exact.end() ? 1.0 : 0.0;
    }
  }
  return hit / static_cast<double>(queries * kTopK);
}

void report_recall(const Inputs& in, const Deployment& dep, Report* rep) {
  const double recall = topk_recall(in, dep.router_port, 200);
  rep->add("topk_recall_at_10", recall, "frac", Kind::kExtra);
  rep->count(1, recall >= in.spec.recall_floor ? 0 : 1, "recall floor");
}

/// Tail latency of a fixed-rate phase.
void report_tail(const e2e::PhaseResult& phase, Report* rep) {
  const auto lat = phase.latencies_us();
  rep->add("read_p90_us", e2e::quantile(lat, 0.90), "us");
  rep->add("read_p95_us", e2e::quantile(lat, 0.95), "us");
  rep->add("read_p99_us", e2e::quantile(lat, 0.99), "us");
  rep->add("read_samples", static_cast<double>(lat.size()), "count");
}

// ---- untraced run: end-to-end metrics -------------------------------------------------

void run_untraced(const Options& opt, const Inputs& in, Report* rep) {
  const Spec& spec = in.spec;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  for (int k = 0; k < spec.setups; ++k) {
    if (dep) dep->stop();
    const std::int64_t t0 = now_ns();
    dep = start_deployment(opt, in, k);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  Traffic tr{in};
  RolloutLog rollouts;
  e2e::PhaseResult fixed;
  ScrapePoint before;
  ScrapePoint after;
  with_rollouts(*dep, spec, &rollouts, [&] {
    before = scrape(*dep);
    fixed = router_phase(tr, *dep, spec.rate, opt.seconds, load_workers());
    after = scrape(*dep);
  });
  rep->count(fixed, "fixed-rate phase");
  {
    std::ofstream ops(opt.out_dir + "/fixed_phase.csv");
    ops << "sched_ns,start_ns,end_ns,ok\n";
    for (const auto& op : fixed.ops) {
      ops << op.sched_ns << ',' << op.start_ns << ',' << op.end_ns << ',' << op.ok << '\n';
    }
  }
  if (spec.topk) report_recall(in, *dep, rep);
  double rss = 0.0;
  for (int pid : dep->pids()) rss += e2e::proc_peak_rss_mb(pid);
  dep->stop();

  rep->add("setup_s", e2e::median(setup_s), "s", Kind::kEndToEnd);
  rep->add("peak_rss_mb", rss, "MB", Kind::kEndToEnd);
  rep->add("read_p50_us", e2e::quantile(fixed.latencies_us(), 0.5), "us", Kind::kEndToEnd);
  report_tail(fixed, rep);
  report_scraped(before, after, fixed, spec.topk, rep);
  const double spans = trace_spans_delta(before, after);
  rep->add("obs.trace_spans", spans, "count");
  if (spans != 0.0) rep->problems.push_back("untraced run recorded trace spans in a daemon");
  if (spec.rollouts) {
    rep->add("rollout_p50_ms", e2e::median(rollouts.admitted_ms), "ms");
    rep->add("reject_p50_ms", e2e::median(rollouts.refused_ms), "ms");
    rep->count(rollouts.attempted, rollouts.wrong, "rollout gate outcome");
  }
}

// ---- traced run: the per-layer ladder --------------------------------------------------

/// One ladder rung: the primary read replayed at the fixed rate through
/// `call(worker, position) → ok`, with a root span per request (scheduled
/// send → reply) and a child span around the public call.
e2e::PhaseResult rung(Traffic& tr, double rate, double seconds, std::size_t workers,
                      e2e::SpanLog& spans, const char* name,
                      const std::function<bool(std::size_t, std::size_t)>& call) {
  const std::size_t count = std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  const std::size_t first = tr.take(count);
  e2e::PhaseResult res = e2e::run_open_loop(
      rate, count, workers, [&](std::size_t w, std::size_t i) { return call(w, first + i); });
  for (std::size_t i = 0; i < count; ++i) {
    const auto& op = res.ops[i];
    const std::uint64_t root = spans.record(first + i, 0, "request", op.sched_ns, op.end_ns);
    spans.record(first + i, root, name, op.start_ns, op.end_ns);
  }
  return res;
}

double p50_span(const e2e::SpanLog& spans, const char* name) {
  return e2e::median(spans.durations_us(name));
}

template <typename Fn>
double median_ms(int reps, Fn fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    v.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return e2e::median(v);
}

/// Gate, EIS, k-NN and SVD cost at gate size on v1 vs v2-good of shard 0.
void report_gate_layers(const Inputs& in, Report* rep) {
  const auto a = in.stores[0]->snapshot("v1");
  const auto b = in.stores[0]->snapshot("v2-good");
  const serve::GateConfig gc;  // anchor_served defaults
  const serve::DeploymentGate gate(gc);
  rep->add("serve.gate_ms", median_ms(5, [&] { gate.evaluate(*a, *b); }), "ms");
  const la::Matrix x = a->to_matrix(gc.max_rows);
  const la::Matrix xt = b->to_matrix(gc.max_rows);
  rep->add("core.eis_ms", median_ms(5, [&] {
             const auto ctx = core::EisContext::build(x, xt, gc.alpha);
             core::eigenspace_instability(ctx.v, ctx.v_tilde, ctx);
           }), "ms");
  rep->add("core.knn_ms", median_ms(5, [&] {
             const la::Matrix nx = core::normalize_rows_l2(x);
             const la::Matrix nxt = core::normalize_rows_l2(xt);
             core::knn_measure_normalized(nx, nxt, gc.knn_k, gc.knn_queries, gc.knn_seed);
           }), "ms");
  rep->add("la.svd_ms", median_ms(5, [&] { la::left_singular_vectors(x); }), "ms");
}

/// Router rollouts against the sum of direct per-backend try_promote calls
/// for the same admitted promotions, both on an idle deployment.
double rollout_overhead_ms(const Deployment& dep, RolloutLog* log) {
  std::vector<double> direct;
  std::vector<std::unique_ptr<net::Client>> backends;
  for (std::uint16_t port : dep.backend_ports) {
    backends.push_back(std::make_unique<net::Client>("127.0.0.1", port, 60000));
  }
  net::Client ctl("127.0.0.1", dep.router_port, 60000);
  for (int rep = 0; rep < 3; ++rep) {
    for (const char* v : {"v2-good", "v1"}) {
      double sum = 0.0;
      for (auto& b : backends) {
        const std::int64_t t0 = now_ns();
        const auto report = b->try_promote(v);
        sum += static_cast<double>(now_ns() - t0) / 1e6;
        ++log->attempted;
        if (!e2e::gate_outcome_ok(v, report.promoted)) ++log->wrong;
      }
      direct.push_back(sum);
    }
    log->live = 0;
    log->cycle = 0;
    g_allowed.store(1u);
    for (int i = 0; i < 3; ++i) one_rollout(ctl, log);
  }
  // The three router rollouts per round are v2-good, v3-bad, v1; the
  // admitted ones are compared.
  return e2e::median(log->admitted_ms) - e2e::median(direct);
}

void run_traced(const Options& opt, const Inputs& in, Report* rep) {
  const Spec& spec = in.spec;
  rep->add("serve.store_load_s", e2e::median(in.load_s), "s");

  // The in-process ANN index: shard 0's first kAnnRows rows, which on
  // topk_uniform are all of shard 0.
  serve::EmbeddingStore ann_store;
  ann_store.add_version("v1", make_rows(opt.seed, 0, 0, kAnnRows), snapshot_config());
  const e2e::ShardReference ann_ref = reference_of(*ann_store.snapshot("v1"), {});
  ann::AnnService ann(ann_store, ann::AnnConfig{});
  {
    const std::int64_t t0 = now_ns();
    ann.index_for_live();
    rep->add("ann.index_build_s", static_cast<double>(now_ns() - t0) / 1e9, "s");
  }

  auto dep = start_deployment(opt, in, 0);
  Traffic tr{in};
  e2e::SpanLog spans;
  RolloutLog rollouts;
  // Long enough for a v2-good and a v3-bad rollout under load.
  const double phase_s = std::max(opt.seconds / 4, spec.rollouts ? 2.0 * spec.rollout_period_ms / 1000 : 0.0);
  const double rung_s = opt.seconds / 8;
  const std::size_t W = load_workers();

  // Untraced router phase, rollouts included: the window the tail and the
  // scraped per-layer metrics come from.
  e2e::PhaseResult plain;
  ScrapePoint before;
  ScrapePoint after;
  with_rollouts(*dep, spec, &rollouts, [&] {
    before = scrape(*dep);
    plain = router_phase(tr, *dep, spec.rate, phase_s, W);
    after = scrape(*dep);
  });
  rep->count(plain, "untraced router phase");
  report_tail(plain, rep);
  report_scraped(before, after, plain, spec.topk, rep);

  // The ladder: the workload's primary read at each public entry point.
  const std::size_t R = spec.rows_per_shard;
  const auto home = [&](const std::string& w) { return in.home_shard(w); };
  std::vector<std::unique_ptr<net::Client>> direct;
  std::vector<std::unique_ptr<cluster::ClusterClient>> scatter;
  for (std::size_t w = 0; w < W; ++w) {
    direct.push_back(std::make_unique<net::Client>("127.0.0.1", dep->backend_ports[0], kRpcTimeoutMs));
    cluster::ClusterConfig cc;
    cc.map = cluster::ShardMap::parse(dep->map);
    scatter.push_back(std::make_unique<cluster::ClusterClient>(cc));
  }
  const auto ladder_rung = [&](const char* name, const std::function<bool(std::size_t, std::size_t)>& call) {
    rep->count(rung(tr, spec.rate, rung_s, W, spans, name, call), std::string(name) + " rung");
  };

  {
    // The in-process services end before the network rungs start: their
    // batcher thread spins while it waits for work.
    serve::LookupConfig lc;  // anchor_served defaults, key-load hook included
    obs::KeyLoadRecorder load({512, 8}, {0, R, 256});
    lc.load = &load;
    serve::LookupService service(*in.stores[0], lc);
    serve::AsyncLookupService async(service);
    std::vector<serve::LookupResult> outs(W);
    if (spec.topk) {
      // In process: the search alone. Batcher: the query row resolved
      // through AsyncLookupService, then the search, as a backend serves
      // TOPK by id.
      ladder_rung("inproc", [&](std::size_t, std::size_t at) {
        const auto r = ann.topk(ann_ref.row(tr.topk_id(at) % kAnnRows), kTopK);
        return e2e::topk_well_formed(r, kTopK, kAnnRows);
      });
      ladder_rung("batcher", [&](std::size_t, std::size_t at) {
        const serve::ResultSlice q = async.lookup_id(tr.topk_id(at) % R).get();
        const auto r = ann.topk(q.row(0), kTopK);
        return e2e::topk_well_formed(r, kTopK, kAnnRows);
      });
    } else {
      ladder_rung("inproc", [&](std::size_t w, std::size_t at) {
        const auto req = fold(tr.lookup(at), R);
        if (req.is_words()) {
          service.lookup_words_into(req.words, &outs[w]);
        } else {
          service.lookup_ids_into(req.ids, &outs[w]);
        }
        return in.checker->check(req, outs[w], 1u, home, true);
      });
      ladder_rung("batcher", [&](std::size_t, std::size_t at) {
        const auto req = fold(tr.lookup(at), R);
        const serve::ResultSlice slice =
            req.is_words() ? async.lookup_words(req.words).get() : async.lookup_ids(req.ids).get();
        serve::LookupResult r;
        r.dim = slice.dim();
        for (std::size_t i = 0; i < slice.size(); ++i) {
          r.vectors.insert(r.vectors.end(), slice.row(i), slice.row(i) + r.dim);
          r.oov.push_back(slice.oov(i) ? serve::kLookupFlagOov : 0);
        }
        return in.checker->check(req, r, 1u, home, true);
      });
    }
  }
  ladder_rung("net.direct", [&](std::size_t w, std::size_t at) {
    if (spec.topk) {
      const auto r = direct[w]->topk_id(tr.topk_id(at) % R, kTopK);
      return e2e::topk_well_formed(r, kTopK, R);
    }
    const auto req = fold(tr.lookup(at), R);
    const auto r = req.is_words() ? direct[w]->lookup_words(req.words) : direct[w]->lookup_ids(req.ids);
    return in.checker->check(req, r, g_allowed.load(), home, true);
  });
  ladder_rung("cluster.scatter", [&](std::size_t w, std::size_t at) {
    return primary_read(*scatter[w], tr, at);
  });
  const double inproc_us = p50_span(spans, "inproc");
  rep->add("inproc_read_us", inproc_us, "us");
  rep->add("serve.batcher_wait_us", p50_span(spans, "batcher") - inproc_us, "us");
  rep->add("net.direct_read_us", p50_span(spans, "net.direct"), "us");
  const double scatter_us = p50_span(spans, "cluster.scatter");
  rep->add("cluster.scatter_read_us", scatter_us, "us");

  // The router rung, untraced and without rollouts (the reference for the
  // router's self time and for trace overhead), then traced: benchmark
  // spans plus the daemons' own tracer. The two alternate in halves, so a
  // slow spell of the host falls on both alike.
  auto traced_clients = router_clients(*dep, W, 1.0);
  std::vector<double> reference_us;
  std::vector<double> traced_us;
  double daemon_spans = 0.0;
  for (int half = 0; half < 2; ++half) {
    const e2e::PhaseResult reference = router_phase(tr, *dep, spec.rate, rung_s / 2, W);
    rep->count(reference, "untraced router rung");
    const auto ref_svc = reference.service_us();
    reference_us.insert(reference_us.end(), ref_svc.begin(), ref_svc.end());
    const ScrapePoint traced_before = scrape(*dep);
    const e2e::PhaseResult traced = rung(tr, spec.rate, rung_s / 2, W, spans, "cluster.router",
                                         [&](std::size_t w, std::size_t at) {
                                           return primary_read(*traced_clients[w], tr, at);
                                         });
    daemon_spans += trace_spans_delta(traced_before, scrape(*dep));
    rep->count(traced, "traced router rung");
    const auto traced_svc = traced.service_us();
    traced_us.insert(traced_us.end(), traced_svc.begin(), traced_svc.end());
  }
  const double reference_p50 = e2e::median(reference_us);
  rep->add("cluster.router_self_us", reference_p50 - scatter_us, "us");
  rep->add("obs.trace_spans", daemon_spans, "count");
  rep->add("bench.trace_overhead_frac", e2e::median(traced_us) / reference_p50 - 1.0, "frac");

  rep->add("read_goodput_rps",
           goodput(tr, *dep, spec, opt.seconds / 4, opt.seconds / 16, W, rep), "1/s");
  if (spec.topk) report_recall(in, *dep, rep);

  // Rollouts on the idle deployment, after every shard is back on v1. They
  // give the router's overhead everywhere, and the rollout times where no
  // rollouts ran under load.
  RolloutLog idle;
  idle.live = rollouts.live;
  net::Client ctl("127.0.0.1", dep->router_port, 60000);
  for (int i = 0; i < 3 && idle.live != 0; ++i) {
    idle.cycle = idle.live == 1 ? 2 : 0;  // v2-good live → roll out v1
    one_rollout(ctl, &idle);
  }
  idle = RolloutLog{};
  rep->add("cluster.rollout_overhead_ms", rollout_overhead_ms(*dep, &idle), "ms");
  const RolloutLog& timed = spec.rollouts ? rollouts : idle;
  rep->add("rollout_p50_ms", e2e::median(timed.admitted_ms), "ms");
  rep->add("reject_p50_ms", e2e::median(timed.refused_ms), "ms");
  rep->count(rollouts.attempted + idle.attempted, rollouts.wrong + idle.wrong,
             "rollout gate outcome");
  dep->stop();

  // Per-key cost of the key-load hook on this workload's key stream.
  std::vector<std::size_t> keys;
  for (std::size_t i = 0; i < std::min<std::size_t>(tr.stream_len(), 20000); ++i) {
    if (spec.topk) {
      keys.push_back(tr.topk_id(i));
    } else {
      const auto& ids = tr.lookup(i).ids;
      keys.insert(keys.end(), ids.begin(), ids.end());
    }
  }
  std::vector<double> ns_per_key;
  for (int r = 0; r < 5; ++r) {
    obs::KeyLoadRecorder load({512, 8}, {0, in.total_rows(), 256});
    const std::int64_t t0 = now_ns();
    load.record_ids(keys.data(), keys.size());
    ns_per_key.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(keys.size()));
  }
  rep->add("obs.key_load_ns_per_key", e2e::median(ns_per_key), "ns");
  report_gate_layers(in, rep);
  spans.write_csv(opt.out_dir + "/spans.csv");
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    o += ch;
  }
  return o;
}

std::string host_json(const Options& opt) {
  const char* threads = std::getenv("ANCHOR_THREADS");
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"isa\": \""
    << la::kernels::active_isa() << "\", \"build_type\": \"" << E2E_BUILD_TYPE
    << "\", \"compiler\": \"" << json_escape(__VERSION__) << "\", \"source\": \""
    << json_escape(opt.source_id) << "\", \"anchor_threads\": \""
    << json_escape(threads ? threads : "") << "\", \"workers\": " << load_workers() << "}";
  return o.str();
}

void on_signal(int sig) {
  e2e::kill_all_children();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--bin-dir") o.bin_dir = v;
    else if (k == "--out-dir") o.out_dir = v;
    else if (k == "--source-id") o.source_id = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (o.workload.empty() || o.bin_dir.empty() || o.out_dir.empty()) {
    throw std::runtime_error("usage: e2e_driver --workload W --seed N --seconds S --trace 0|1 "
                             "--bin-dir DIR --out-dir DIR [--source-id ID]");
  }
  if (o.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  Report rep;
  Options opt;
  try {
    opt = parse_args(argc, argv);
    Spec spec = spec_for(opt.workload);
    // Traced runs time router rollouts on every workload, so their
    // deployments serve all three versions.
    if (opt.trace) spec.versions = 3;
    std::filesystem::create_directories(opt.out_dir);
    // Long enough that no phase of a run repeats a request (positions wrap
    // past the end).
    const std::size_t stream_len = static_cast<std::size_t>(spec.rate * opt.seconds * 4) + 1024;
    const Inputs in = make_inputs(opt, spec, stream_len);
    std::cout << "host " << host_json(opt) << "\n";
    std::cout << "workload " << spec.name << " rows=" << kShards << "x" << spec.rows_per_shard
              << " dim=" << kDim << " rate=" << spec.rate << "/s p95_limit=" << spec.p95_limit_us
              << "us workers=" << load_workers() << " seed=" << opt.seed << "\n";
    if (opt.trace) {
      run_traced(opt, in, &rep);
    } else {
      run_untraced(opt, in, &rep);
    }
    std::filesystem::remove_all(opt.out_dir + "/data");
  } catch (const std::exception& e) {
    e2e::kill_all_children();
    std::filesystem::remove_all(opt.out_dir + "/data");
    std::cerr << "e2e_driver: " << e.what() << "\n";
    return 2;
  }

  for (Metric& m : rep.metrics) {
    if (!std::isfinite(m.value)) {
      rep.problems.push_back(m.name + " could not be measured");
      m.value = 0.0;
    }
  }
  const std::size_t failed_ops = rep.failed;
  rep.add("failed_frac",
          rep.attempted ? static_cast<double>(failed_ops) / static_cast<double>(rep.attempted) : 0.0,
          "frac");
  for (const Metric& m : rep.metrics) {
    std::cout << "metric " << m.name << " = " << std::setprecision(9) << m.value << " " << m.unit
              << "\n";
  }
  for (const std::string& p : rep.problems) std::cout << "check failed: " << p << "\n";
  const bool correct = rep.problems.empty();
  std::ostringstream metrics;
  bool first = true;
  const Kind last_line = opt.trace ? Kind::kLayer : Kind::kEndToEnd;
  for (const Metric& m : rep.metrics) {
    if (m.kind != last_line) continue;
    metrics << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << std::setprecision(10)
            << m.value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::ostringstream all;
  first = true;
  for (const Metric& m : rep.metrics) {
    all << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << std::setprecision(10)
        << m.value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  {
    std::ofstream out(opt.out_dir + "/result.json");
    out << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
        << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"host\": " << host_json(opt)
        << ", \"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << rep.attempted
        << ", \"failed\": " << failed_ops << ", \"metrics\": {" << all.str() << "}}\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << std::max<std::size_t>(rep.attempted, 1) << ", \"failed\": " << failed_ops
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}
