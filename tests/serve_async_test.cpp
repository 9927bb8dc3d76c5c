// AsyncLookupService (serve/batcher): coalescing correctness, flush
// policy, drain-on-destruction, and error propagation. Timing-dependent
// behavior is asserted only in directions that cannot flake (e.g. "at
// least ceil(n/max) batches"), never via sleeps.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/demo_store.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace anchor::serve {
namespace {

embed::Embedding random_embedding(std::size_t vocab, std::size_t dim,
                                  std::uint64_t seed) {
  embed::Embedding e(vocab, dim);
  Rng rng(seed);
  for (auto& x : e.data) x = static_cast<float>(rng.normal(0.0, 1.0));
  return e;
}

constexpr std::size_t kVocab = 500;
constexpr std::size_t kDim = 24;

class AsyncLookupTest : public ::testing::Test {
 protected:
  AsyncLookupTest() {
    SnapshotConfig q8;
    q8.bits = 8;
    store_.add_version("live", random_embedding(kVocab, kDim, 11), q8);
  }

  EmbeddingStore store_;
};

TEST_F(AsyncLookupTest, ConcurrentSingleKeyLookupsMatchDirectBatch) {
  LookupService service(store_);
  AsyncLookupService async(service);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      LookupService check(store_);  // independent direct path
      for (int i = 0; i < kPerThread; ++i) {
        // Mix of in-vocab and OOV ids.
        const std::size_t id = rng.index(kVocab + 32);
        ResultSlice slice = async.lookup_id(id).get();
        const LookupResult direct = check.lookup_ids({id});
        if (slice.size() != 1 || slice.dim() != kDim ||
            slice.oov(0) != (direct.oov[0] != 0) ||
            slice.version() != direct.version) {
          ++mismatches;
          continue;
        }
        for (std::size_t d = 0; d < kDim; ++d) {
          if (slice.row(0)[d] != direct.row(0)[d]) {
            ++mismatches;
            break;
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  const StatsSnapshot stats = async.stats().snapshot();
  EXPECT_EQ(stats.lookups, kThreads * kPerThread);
  // Every flush records one batch; coalescing can only reduce the count.
  EXPECT_LE(stats.batches, stats.lookups);
}

TEST_F(AsyncLookupTest, PipelinedRequestsCoalesceIntoSharedBatches) {
  LookupService service(store_);
  BatcherConfig config;
  config.max_batch_size = 32;
  config.max_wait_us = 5000;  // generous: flush on size, not age
  AsyncLookupService async(service, config);

  // Issue a window of single-key requests without draining, so the
  // combiner sees a deep queue and can fill batches.
  constexpr std::size_t kRequests = 256;
  std::vector<std::future<ResultSlice>> futures;
  futures.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(async.lookup_id(i % kVocab));
  }
  std::size_t shared = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    ResultSlice slice = futures[i].get();
    ASSERT_EQ(slice.size(), 1u);
    EXPECT_EQ(slice.row(0)[0],
              service.lookup_ids({i % kVocab}).row(0)[0]);
    // A slice whose backing batch holds more rows than the request proves
    // zero-copy sharing with co-batched waiters.
    if (slice.batch()->size() > 1) ++shared;
  }
  EXPECT_GT(shared, 0u);
  const StatsSnapshot stats = async.stats().snapshot();
  EXPECT_EQ(stats.lookups, kRequests);
  // max_batch_size caps each flush, so at least ceil(256/32) batches; the
  // exact count depends on arrival timing.
  EXPECT_GE(stats.batches, kRequests / config.max_batch_size);
  EXPECT_LT(stats.batches, kRequests);
}

TEST_F(AsyncLookupTest, SmallBatchAndWordRequestsInterleave) {
  LookupService service(store_);
  AsyncLookupService async(service);

  auto ids_fut = async.lookup_ids({0, 5, kVocab + 7});
  auto word_fut = async.lookup_word("w3");
  auto words_fut = async.lookup_words({"w1", "definitely-oov"});

  const ResultSlice ids = ids_fut.get();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_FALSE(ids.oov(0));
  EXPECT_TRUE(ids.oov(2));
  const LookupResult direct = service.lookup_ids({0, 5});
  for (std::size_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(ids.row(0)[d], direct.row(0)[d]);
    EXPECT_EQ(ids.row(1)[d], direct.row(1)[d]);
  }

  const ResultSlice word = word_fut.get();
  ASSERT_EQ(word.size(), 1u);
  EXPECT_FALSE(word.oov(0));
  const LookupResult word_direct = service.lookup_words({"w3"});
  for (std::size_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(word.row(0)[d], word_direct.row(0)[d]);
  }

  const ResultSlice words = words_fut.get();
  ASSERT_EQ(words.size(), 2u);
  EXPECT_FALSE(words.oov(0));
  EXPECT_TRUE(words.oov(1));
}

TEST_F(AsyncLookupTest, EmptyRequestResolvesToEmptySlice) {
  LookupService service(store_);
  AsyncLookupService async(service);
  const ResultSlice slice = async.lookup_ids({}).get();
  EXPECT_EQ(slice.size(), 0u);
}

TEST_F(AsyncLookupTest, DestructorDrainsQueuedGeneralRequests) {
  // std::futures outlive the service and must still complete because
  // destruction drains the dispatcher queue.
  LookupService service(store_);
  BatcherConfig config;
  config.max_batch_size = 4096;           // nothing flushes on size...
  config.max_wait_us = 60 * 1000 * 1000;  // ...or on age
  std::vector<std::future<ResultSlice>> futures;
  {
    AsyncLookupService async(service, config);
    for (std::size_t i = 0; i < 64; ++i) {
      futures.push_back(async.lookup_ids({i}));
    }
    // Destruction must flush the queue: every future still completes.
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ResultSlice slice = futures[i].get();
    ASSERT_EQ(slice.size(), 1u);
    EXPECT_FALSE(slice.oov(0));
    EXPECT_EQ(slice.row(0)[0], service.lookup_ids({i}).row(0)[0]);
  }
}

TEST_F(AsyncLookupTest, SlicesOutliveTheServiceSafely) {
  LookupService service(store_);
  ResultSlice kept;
  {
    AsyncLookupService async(service);
    kept = async.lookup_id(42).get();
  }
  // The slice shares ownership of its batch buffer, so it stays valid
  // after the async service is gone.
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept.row(0)[0], service.lookup_ids({42}).row(0)[0]);
}

TEST(AsyncLookupErrors, LookupAgainstEmptyStoreRejectsTheFuture) {
  EmbeddingStore empty;
  LookupService service(empty);
  AsyncLookupService async(service);
  auto fut = async.lookup_id(0);
  EXPECT_THROW(fut.get(), std::exception);
  // The dispatcher must survive a failed batch and keep serving: another
  // request still completes (with the same error).
  auto fut2 = async.lookup_id(1);
  EXPECT_THROW(fut2.get(), std::exception);
}

// The synthetic demo store underpins the RPC example and the daemon's
// --demo mode: its gate outcomes under DEFAULT thresholds are a contract,
// so pin them here rather than discovering drift in a smoke script.
TEST(DemoStore, DefaultGateAdmitsRoutineAndRejectsBotched) {
  EmbeddingStore store;
  DemoStoreConfig config;
  config.vocab = 600;  // smaller than the default: keep the suite fast
  config.dim = 32;
  add_demo_versions(store, config);
  EXPECT_EQ(store.live_version(), "v1");

  DeploymentGate gate;  // default thresholds — what the daemon ships with
  const GateReport bad = gate.try_promote(store, "v3-bad");
  EXPECT_EQ(bad.decision, GateDecision::kReject);
  EXPECT_FALSE(bad.promoted);
  EXPECT_EQ(store.live_version(), "v1");

  const GateReport good = gate.try_promote(store, "v2-good");
  EXPECT_EQ(good.decision, GateDecision::kAdmit);
  EXPECT_TRUE(good.promoted);
  EXPECT_EQ(store.live_version(), "v2-good");
}

}  // namespace
}  // namespace anchor::serve
