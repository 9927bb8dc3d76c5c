#include "serve/batcher.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

namespace anchor::serve {

AsyncLookupService::AsyncLookupService(const LookupService& service,
                                       BatcherConfig config,
                                       std::shared_ptr<ServeStats> stats)
    : service_(service),
      config_(config),
      stats_(stats ? std::move(stats) : std::make_shared<ServeStats>()) {
  if (config_.max_batch_size == 0) config_.max_batch_size = 1;
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

AsyncLookupService::~AsyncLookupService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  dispatcher_.join();
}

std::future<ResultSlice> AsyncLookupService::enqueue(Request req) {
  req.enqueued = std::chrono::steady_clock::now();
  std::future<ResultSlice> fut = req.promise.get_future();
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      req.promise.set_exception(std::make_exception_ptr(std::runtime_error(
          "AsyncLookupService: request after shutdown")));
      return fut;
    }
    // Wake the dispatcher only on the transitions it can act on: queue
    // became non-empty (it may be sleeping with nothing to wait for) or
    // the batch just filled (it is otherwise sleeping until the age
    // deadline and would flush late).
    const bool was_empty = queue_.empty();
    queued_keys_ += req.key_count;
    queue_.push_back(std::move(req));
    notify = was_empty || queued_keys_ >= config_.max_batch_size;
  }
  if (notify) cv_.notify_one();
  return fut;
}

std::future<ResultSlice> AsyncLookupService::lookup_id(std::size_t id) {
  return lookup_ids({id});
}

std::future<ResultSlice> AsyncLookupService::lookup_ids(
    std::vector<std::size_t> ids) {
  Request req;
  req.key_count = ids.size();
  req.ids = std::move(ids);
  return enqueue(std::move(req));
}

std::future<ResultSlice> AsyncLookupService::lookup_word(std::string word) {
  return lookup_words({std::move(word)});
}

std::future<ResultSlice> AsyncLookupService::lookup_words(
    std::vector<std::string> words) {
  Request req;
  req.words_kind = true;
  req.key_count = words.size();
  req.words = std::move(words);
  return enqueue(std::move(req));
}

void AsyncLookupService::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<Request> batch;
  for (;;) {
    if (queue_.empty()) {
      if (stop_) break;
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      continue;
    }
    // Wait for a full batch or for the oldest request to age out. On stop
    // the remaining queue flushes immediately — every accepted request is
    // served, so a future handed out is always eventually ready.
    if (!stop_ && queued_keys_ < config_.max_batch_size) {
      const auto deadline = queue_.front().enqueued +
                            std::chrono::microseconds(config_.max_wait_us);
      while (!stop_ && queued_keys_ < config_.max_batch_size) {
        if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
      }
    }

    // Drain whole requests until the key budget is spent. Requests are
    // never split; an oversized request flushes alone.
    batch.clear();
    std::size_t keys = 0;
    while (!queue_.empty()) {
      const std::size_t next = queue_.front().key_count;
      if (!batch.empty() && keys + next > config_.max_batch_size) break;
      keys += next;
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (keys >= config_.max_batch_size) break;
    }
    queued_keys_ -= keys;

    lock.unlock();
    run_batch(batch);
    lock.lock();
  }
}

void AsyncLookupService::run_batch(std::vector<Request>& batch) {
  // Group keys by kind, preserving arrival order within each group; one
  // lookup per non-empty group, shared by every waiter of that kind.
  std::vector<std::size_t> ids;
  std::vector<std::string> words;
  std::size_t keys = 0;
  auto oldest = batch.front().enqueued;
  for (const Request& r : batch) {
    keys += r.key_count;
    if (r.enqueued < oldest) oldest = r.enqueued;
    if (r.words_kind) {
      words.insert(words.end(), r.words.begin(), r.words.end());
    } else {
      ids.insert(ids.end(), r.ids.begin(), r.ids.end());
    }
  }

  std::shared_ptr<LookupResult> id_result, word_result;
  std::exception_ptr error;
  try {
    if (!ids.empty()) {
      id_result = std::make_shared<LookupResult>();
      service_.lookup_ids_into(ids, id_result.get());
    }
    if (!words.empty()) {
      word_result = std::make_shared<LookupResult>();
      service_.lookup_words_into(words, word_result.get());
    }
  } catch (...) {
    error = std::current_exception();
  }

  // Stats before fulfilling the promises: a caller whose get() returned
  // must find its own keys already counted in a subsequent stats read.
  if (!error) {
    stats_->record_batch(keys, std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() - oldest)
                                   .count());
  }

  std::size_t id_off = 0, word_off = 0;
  for (Request& r : batch) {
    if (error) {
      r.promise.set_exception(error);
    } else if (r.words_kind) {
      r.promise.set_value(ResultSlice(word_result, word_off, r.key_count));
      word_off += r.key_count;
    } else {
      r.promise.set_value(ResultSlice(id_result, id_off, r.key_count));
      id_off += r.key_count;
    }
  }
}

}  // namespace anchor::serve
