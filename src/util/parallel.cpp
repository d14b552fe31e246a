#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/env.hpp"

namespace fecim::util {

namespace {

/// Set while a thread is executing pool work (workers, and the caller while
/// it participates); nested parallel_for calls detect it and run inline.
thread_local bool tl_in_parallel_region = false;

std::vector<std::string> describe_errors(
    const std::vector<std::exception_ptr>& errors) {
  std::vector<std::string> messages;
  messages.reserve(errors.size());
  for (const auto& error : errors) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      messages.emplace_back(e.what());
    } catch (...) {
      messages.emplace_back("unknown exception");
    }
  }
  return messages;
}

/// One parallel_for invocation.  Heap-owned via shared_ptr so a worker that
/// wakes late (after the caller returned) can still inspect the claim
/// counters safely; it then finds the index range exhausted and never
/// touches `body`, which only outlives the caller's stack frame through the
/// caller's own wait on `done == count`.
struct Job {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t count = 0;
  std::size_t max_slots = 0;                 ///< participating threads
  std::atomic<std::size_t> next{0};          ///< index claim counter
  std::atomic<std::size_t> done{0};          ///< indices fully processed
  std::atomic<std::size_t> slots{0};         ///< participation tickets
  std::atomic<bool> failed{false};
  std::size_t failure_count = 0;             ///< guarded by mutex
  std::vector<std::exception_ptr> errors;    ///< first kMaxMessages, guarded
  std::mutex mutex;                          ///< guards errors + completion cv
  std::condition_variable completed;
};

void execute(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) return;
    // After a failure, keep claiming (so `done` still reaches `count` and
    // the caller unblocks) but skip the body: no wasted work on a campaign
    // that is already going to rethrow.
    if (!job.failed.load(std::memory_order_relaxed)) {
      try {
        (*job.body)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(job.mutex);
        ++job.failure_count;
        if (job.errors.size() < parallel_error::kMaxMessages)
          job.errors.push_back(std::current_exception());
        job.failed.store(true, std::memory_order_relaxed);
      }
    }
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.count) {
      const std::lock_guard<std::mutex> lock(job.mutex);
      job.completed.notify_all();
    }
  }
}

/// Lazily-spawned persistent worker pool (grows to the largest concurrency
/// any call has requested; threads idle on a condition variable between
/// jobs and are joined at process exit).
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  void run(std::size_t count, const std::function<void(std::size_t)>& body,
           std::size_t max_slots) {
    // One job at a time: concurrent top-level parallel_for calls queue here
    // rather than interleaving claims on the shared worker set.
    const std::lock_guard<std::mutex> run_lock(run_mutex_);
    auto job = std::make_shared<Job>();
    job->body = &body;
    job->count = count;
    job->max_slots = max_slots;

    ensure_workers(max_slots - 1);  // the caller occupies one slot
    // Claim the caller's participation ticket before the job becomes
    // visible: the caller always executes, so its ticket must be one of
    // the max_slots counted ones or surplus pool workers could push the
    // concurrency to max_slots + 1.
    job->slots.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job_ = job;
      ++generation_;
    }
    wake_.notify_all();

    const bool was_in_region = tl_in_parallel_region;
    tl_in_parallel_region = true;
    execute(*job);
    tl_in_parallel_region = was_in_region;

    {
      std::unique_lock<std::mutex> lock(job->mutex);
      job->completed.wait(lock, [&] {
        return job->done.load(std::memory_order_acquire) >= job->count;
      });
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job_.reset();
    }
    // All workers are done with the job here, so the error fields need no
    // lock.  One failure rethrows the original exception; concurrent
    // failures aggregate so none is silently dropped.
    if (job->failure_count == 1) std::rethrow_exception(job->errors.front());
    if (job->failure_count > 1)
      throw parallel_error(job->failure_count, describe_errors(job->errors));
  }

 private:
  ThreadPool() = default;

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  void ensure_workers(std::size_t wanted) {
    const std::lock_guard<std::mutex> lock(mutex_);
    while (workers_.size() < wanted)
      workers_.emplace_back([this] { worker_main(); });
  }

  void worker_main() {
    tl_in_parallel_region = true;
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return stop_ || generation_ > seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      if (!job) continue;
      // Participation ticket: calls may request fewer slots than the pool
      // has workers; surplus workers go straight back to sleep.
      if (job->slots.fetch_add(1, std::memory_order_relaxed) < job->max_slots)
        execute(*job);
    }
  }

  std::mutex run_mutex_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

std::string compose_parallel_error_message(
    std::size_t failures, const std::vector<std::string>& messages) {
  std::string text = std::to_string(failures) + " parallel task" +
                     (failures == 1 ? "" : "s") + " failed";
  const char* separator = ": ";
  for (const auto& message : messages) {
    text += separator;
    text += message;
    separator = "; ";
  }
  if (failures > messages.size())
    text += "; " + std::to_string(failures - messages.size()) + " more";
  return text;
}

}  // namespace

parallel_error::parallel_error(std::size_t failures,
                               std::vector<std::string> messages)
    : std::runtime_error(compose_parallel_error_message(failures, messages)),
      failures_(failures),
      messages_(std::move(messages)) {}

std::size_t resolved_parallel_threads(std::size_t count, std::size_t threads) {
  if (threads == 0) threads = worker_threads();
  threads = std::min(threads, count);
  return threads == 0 ? 1 : threads;
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (count == 0) return;
  threads = resolved_parallel_threads(count, threads);

  // Serial fast path; also taken for nested calls from inside a pool task,
  // which would otherwise deadlock on the single-job pool.
  if (threads <= 1 || tl_in_parallel_region) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  ThreadPool::instance().run(count, body, threads);
}

}  // namespace fecim::util
