// Async batching front-end over LookupService: request coalescing for
// in-process callers.
//
// Requests from any number of client threads queue on one mutex-guarded
// deque. A single dispatcher thread drains it into batches of up to
// `max_batch_size` keys (or whatever has accumulated once the oldest
// request has aged `max_wait_us`) and runs each batch inline through
// LookupService::lookup_ids_into / lookup_words_into, so many callers doing
// small lookups share one gather per batch.
//
// The serving daemon does not use this class: its connection threads call
// LookupService directly, because on the RPC path a request never waited
// long enough for another to join its batch (measured mean batch = the
// per-request key count), so the flush deadline was pure added latency.
// The class stays for in-process callers and is measured by the end-to-end
// benchmark's batcher rung.
//
// Scatter is zero-copy: each coalesced batch produces ONE LookupResult per
// key kind and every waiter's future resolves to a ResultSlice — an
// (offset, count) view into that shared buffer. Destruction drains the
// queue, so every future handed out completes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/lookup_service.hpp"
#include "serve/serve_stats.hpp"

namespace anchor::serve {

struct BatcherConfig {
  /// Flush a coalesced batch once this many keys are waiting. Requests are
  /// never split: a single request larger than this flushes alone.
  std::size_t max_batch_size = 64;
  /// Flush once the oldest queued request has waited this long, even if
  /// the batch is not full — bounds added latency under light traffic.
  std::uint32_t max_wait_us = 100;
};

/// One caller's slice of a coalesced batch result: rows
/// [first, first+count) of the shared LookupResult. Copyable; holding any
/// slice keeps the whole batch buffer alive.
class ResultSlice {
 public:
  ResultSlice() = default;
  ResultSlice(std::shared_ptr<const LookupResult> batch, std::size_t first,
              std::size_t count)
      : batch_(std::move(batch)), first_(first), count_(count) {}

  std::size_t size() const { return count_; }
  std::size_t first() const { return first_; }
  std::size_t dim() const { return batch_ ? batch_->dim : 0; }
  const float* row(std::size_t i) const { return batch_->row(first_ + i); }
  bool oov(std::size_t i) const { return batch_->oov[first_ + i] != 0; }
  const std::string& version() const { return batch_->version; }
  /// The whole coalesced result this slice views (shared with co-batched
  /// waiters); null for a default-constructed or empty-request slice.
  const std::shared_ptr<const LookupResult>& batch() const { return batch_; }

 private:
  std::shared_ptr<const LookupResult> batch_;
  std::size_t first_ = 0;
  std::size_t count_ = 0;
};

class AsyncLookupService {
 public:
  /// The service must outlive this object. `stats` records *coalesced*
  /// batches with client-observed latency (enqueue of the oldest waiter →
  /// scatter), one record per flush — the underlying LookupService's own
  /// stats keep counting the executed lookups. Null = internal instance.
  explicit AsyncLookupService(const LookupService& service,
                              BatcherConfig config = {},
                              std::shared_ptr<ServeStats> stats = nullptr);
  /// Drains every queued request (each future still completes) and stops
  /// the dispatcher.
  ~AsyncLookupService();
  AsyncLookupService(const AsyncLookupService&) = delete;
  AsyncLookupService& operator=(const AsyncLookupService&) = delete;

  /// Id and word requests coalesce with each other on the dispatcher
  /// thread; the slice spans the request's keys in order. The future
  /// throws if the underlying lookup threw (e.g. empty store).
  std::future<ResultSlice> lookup_id(std::size_t id);
  std::future<ResultSlice> lookup_ids(std::vector<std::size_t> ids);
  std::future<ResultSlice> lookup_word(std::string word);
  std::future<ResultSlice> lookup_words(std::vector<std::string> words);

  const ServeStats& stats() const { return *stats_; }
  ServeStats& stats() { return *stats_; }

 private:
  struct Request {
    bool words_kind = false;  // keys are in `words`, not `ids`
    std::vector<std::size_t> ids;
    std::vector<std::string> words;
    std::size_t key_count = 0;
    std::chrono::steady_clock::time_point enqueued;
    std::promise<ResultSlice> promise;
  };

  std::future<ResultSlice> enqueue(Request req);
  void dispatcher_loop();
  /// Executes one coalesced batch on the dispatcher thread: groups ids and
  /// words, runs one lookup_*_into per non-empty group, records stats,
  /// and scatters slices to every waiter.
  void run_batch(std::vector<Request>& batch);

  const LookupService& service_;
  BatcherConfig config_;
  std::shared_ptr<ServeStats> stats_;

  std::mutex mu_;
  std::condition_variable cv_;  // wakes the dispatcher
  std::deque<Request> queue_;
  std::size_t queued_keys_ = 0;
  bool stop_ = false;
  std::thread dispatcher_;
};

}  // namespace anchor::serve
