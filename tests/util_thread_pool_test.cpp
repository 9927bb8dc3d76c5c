// util::ThreadPool — the parallelism substrate under the measure layer.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace anchor {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  for (const std::size_t n : {0u, 1u, 3u, 64u, 1000u}) {
    std::vector<std::atomic<int>> counts(n);
    pool.parallel_for(0, n, [&](std::size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPool, ParallelForHonorsNonZeroBegin) {
  util::ThreadPool pool(3);
  std::vector<int> hits(100, 0);
  pool.parallel_for(40, 70, [&](std::size_t i) { hits[i] = 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], (i >= 40 && i < 70) ? 1 : 0) << i;
  }
}

TEST(ThreadPool, IndependentSlotWritesAreDeterministicAcrossPoolSizes) {
  std::vector<double> reference;
  for (const std::size_t threads : {1u, 2u, 7u}) {
    util::ThreadPool pool(threads);
    std::vector<double> out(512);
    pool.parallel_for(0, out.size(), [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5 - 3.0;
    });
    if (reference.empty()) {
      reference = out;
    } else {
      EXPECT_EQ(reference, out) << "threads=" << threads;
    }
  }
}

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  util::ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, NestedParallelForFromWorkerCompletes) {
  util::ThreadPool pool(2);
  std::atomic<int> total{0};
  auto fut = pool.submit([&] {
    EXPECT_TRUE(util::ThreadPool::on_worker_thread());
    // Nested loop must complete without needing a free pool slot (the
    // worker drains the chunks itself if nobody else picks them up).
    pool.parallel_for(0, 10, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
    return true;
  });
  EXPECT_TRUE(fut.get());
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, ParallelForOnSaturatedPoolDoesNotDeadlock) {
  util::ThreadPool pool(2);
  // Saturate every worker, then run a parallel_for from the caller: the
  // caller-drains design must finish the loop with no free worker at all.
  std::atomic<bool> release{false};
  auto b1 = pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
    return true;
  });
  auto b2 = pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
    return true;
  });
  std::atomic<int> done{0};
  pool.parallel_for(0, 100, [&](std::size_t) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 100);
  release.store(true);
  EXPECT_TRUE(b1.get());
  EXPECT_TRUE(b2.get());
}

TEST(ThreadPool, ParallelForRethrowsFirstExceptionAfterQuiescing) {
  util::ThreadPool pool(3);
  std::atomic<int> ran{0};
  const auto loop = [&] {
    pool.parallel_for(0, 64, [&](std::size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 17) throw std::runtime_error("boom");
    });
  };
  EXPECT_THROW(loop(), std::runtime_error);
  // The loop quiesced before rethrowing: all chunks ran except the tail of
  // the one that threw (no helper is left touching freed state — ASan
  // covers the use-after-free half of this contract).
  EXPECT_GE(ran.load(), 18);
  EXPECT_LE(ran.load(), 64);
}

TEST(ThreadPool, GlobalPoolResizes) {
  util::set_global_pool_threads(3);
  EXPECT_EQ(util::global_pool_threads(), 3u);
  util::set_global_pool_threads(0);  // back to default sizing
  EXPECT_GE(util::global_pool_threads(), 1u);
}

// Forks; the child exits 0 iff the global pool still runs work (submit and
// parallel_for), under an alarm so a hung pool fails instead of stalling
// the suite. Returns the child's wait status.
int global_pool_status_in_child() {
  const pid_t pid = fork();
  if (pid == 0) {
    alarm(10);
    int code = 1;
    try {
      const int submitted = util::global_pool().submit([] { return 7; }).get();
      std::atomic<std::size_t> sum{0};
      util::global_pool().parallel_for(0, 64, [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
      if (submitted == 7 && sum.load() == 64 * 63 / 2) code = 0;
    } catch (...) {
    }
    _exit(code);
  }
  int status = -1;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return status;
}

TEST(ThreadPool, GlobalPoolRunsWorkInAForkedChild) {
  // The parent's workers exist before the fork; the child gets none of
  // them and must build its own pool rather than queue onto a dead one.
  util::set_global_pool_threads(3);
  EXPECT_EQ(util::global_pool().submit([] { return 1; }).get(), 1);
  for (int round = 0; round < 3; ++round) {
    const int status = global_pool_status_in_child();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "round=" << round << " status=" << status;
  }
  // The parent's own pool is untouched by the fork.
  EXPECT_EQ(util::global_pool_threads(), 3u);
  EXPECT_EQ(util::global_pool().submit([] { return 2; }).get(), 2);
  util::set_global_pool_threads(0);
}

TEST(ThreadPool, ForkWhileAnotherThreadRebuildsTheGlobalPool) {
  // The resizer holds the global pool's lock while it builds each pool;
  // a fork landing inside that window must not leave the child with the
  // lock held by a thread it does not have.
  std::atomic<bool> stop{false};
  std::thread resizer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      util::set_global_pool_threads(2);
    }
  });
  for (int round = 0; round < 10; ++round) {
    const int status = global_pool_status_in_child();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "round=" << round << " status=" << status;
  }
  stop.store(true, std::memory_order_relaxed);
  resizer.join();
  util::set_global_pool_threads(0);
}

}  // namespace
}  // namespace anchor
