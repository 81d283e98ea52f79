#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dv {

namespace {

/// True while the current thread is executing chunks of a parallel region;
/// nested regions then run sequentially instead of deadlocking the pool.
thread_local bool t_in_parallel_region = false;

struct parallel_job {
  std::int64_t begin{0};
  std::int64_t grain{1};
  std::int64_t num_chunks{0};
  std::int64_t end{0};
  const std::function<void(std::int64_t, std::int64_t, std::int64_t, int)>*
      fn{nullptr};
  std::atomic<std::int64_t> next_chunk{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // dv:guarded-by(error_mutex)
};

// Oversized pools only add overhead (results never depend on the count),
// and asking for thousands of threads can abort on rlimits.
constexpr int k_max_threads = 256;

int default_thread_count() {
  if (const char* env = std::getenv("DV_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n > 0) {
      return static_cast<int>(std::min<long>(n, k_max_threads));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

class thread_pool {
 public:
  thread_pool() { spawn(default_thread_count()); }

  ~thread_pool() {
    {
      std::unique_lock<std::mutex> lock{mutex_};
      stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  int threads() const { return threads_; }

  void resize(int n) {
    if (n <= 0) n = default_thread_count();
    n = std::min(n, k_max_threads);
    if (n == threads_) return;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
    // Every worker has joined: no other thread can observe this write.
    stop_ = false;  // dv-lint: allow(race)
    spawn(n);
  }

  /// Claims the workers for one region; false while another thread's
  /// region holds them.
  bool try_claim() { return !busy_.exchange(true, std::memory_order_acquire); }

  /// Runs `job` on the claimed workers and releases them.
  void run(parallel_job& job) {
    {
      std::unique_lock<std::mutex> lock{mutex_};
      job_ = &job;
      active_workers_ = static_cast<int>(workers_.size());
      ++generation_;
    }
    start_cv_.notify_all();
    // The caller participates as rank 0.
    t_in_parallel_region = true;
    drain(job, /*rank=*/0);
    t_in_parallel_region = false;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      done_cv_.wait(lock, [&] { return active_workers_ == 0; });
      job_ = nullptr;
    }
    busy_.store(false, std::memory_order_release);
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  void spawn(int n) {
    threads_ = n;
    // New workers start at the current generation: one that started at 0
    // after a resize would take the last finished generation for a new
    // job and decrement active_workers_ for a region it never joined.
    std::uint64_t generation = 0;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      generation = generation_;
    }
    workers_.reserve(static_cast<std::size_t>(n - 1));
    for (int rank = 1; rank < n; ++rank) {
      workers_.emplace_back(
          [this, rank, generation] { worker_loop(rank, generation); });
    }
  }

  // dv:thread-entry(pool worker thread spawned by spawn())
  void worker_loop(int rank, std::uint64_t seen_generation) {
    for (;;) {
      parallel_job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock{mutex_};
        start_cv_.wait(lock, [&] {
          return stop_ || generation_ != seen_generation;
        });
        if (stop_) return;
        seen_generation = generation_;
        job = job_;
      }
      if (job != nullptr) {
        t_in_parallel_region = true;
        drain(*job, rank);
        t_in_parallel_region = false;
      }
      {
        std::unique_lock<std::mutex> lock{mutex_};
        if (--active_workers_ == 0) done_cv_.notify_all();
      }
    }
  }

  /// Executes chunks until the job runs out of them.
  static void drain(parallel_job& job, int rank) {
    for (;;) {
      const std::int64_t chunk =
          job.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= job.num_chunks) return;
      const std::int64_t b = job.begin + chunk * job.grain;
      const std::int64_t e = std::min(job.end, b + job.grain);
      try {
        (*job.fn)(chunk, b, e, rank);
      } catch (...) {
        std::lock_guard<std::mutex> lock{job.error_mutex};
        if (!job.error) job.error = std::current_exception();
        // Stop handing out further chunks after a failure.
        job.next_chunk.store(job.num_chunks, std::memory_order_relaxed);
        return;
      }
    }
  }

  /// Written only while the pool is quiescent (ctor / resize after the
  /// join): callers must not resize concurrently with parallel_for, per
  /// the header contract. dv-lint: allow(race)
  int threads_{1};
  /// Same quiescence contract as threads_: mutated only in spawn/resize
  /// after every worker has joined. dv-lint: allow(race)
  std::vector<std::thread> workers_;
  /// Set while one caller's region runs on the workers.
  std::atomic<bool> busy_{false};
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_{0};       // dv:guarded-by(mutex_)
  int active_workers_{0};             // dv:guarded-by(mutex_)
  parallel_job* job_{nullptr};        // dv:guarded-by(mutex_)
  bool stop_{false};                  // dv:guarded-by(mutex_)
};

thread_pool& pool() {
  // The process-wide worker pool itself; construction is thread-safe
  // (magic static) and all state is mutex-guarded.
  // dv-lint: allow(thread-safety) mutex-guarded pool singleton
  static thread_pool instance;
  return instance;
}

void run_region(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t, int)>&
        fn) {
  if (grain <= 0) throw std::invalid_argument{"parallel_for: grain <= 0"};
  const std::int64_t num_chunks = parallel_chunk_count(begin, end, grain);
  if (num_chunks <= 0) return;
  // Sequential execution preserves the exact chunk decomposition, so the
  // deterministic-chunking contract holds on every path. A region that
  // finds the workers busy with another thread's region runs here too.
  if (num_chunks == 1 || t_in_parallel_region || pool().threads() == 1 ||
      !pool().try_claim()) {
    for (std::int64_t chunk = 0; chunk < num_chunks; ++chunk) {
      const std::int64_t b = begin + chunk * grain;
      const std::int64_t e = std::min(end, b + grain);
      fn(chunk, b, e, 0);
    }
    return;
  }
  parallel_job job;
  job.begin = begin;
  job.grain = grain;
  job.num_chunks = num_chunks;
  job.end = end;
  job.fn = &fn;
  pool().run(job);
}

}  // namespace

int thread_count() { return pool().threads(); }

void set_thread_count(int n) { pool().resize(n); }

std::int64_t parallel_chunk_count(std::int64_t begin, std::int64_t end,
                                  std::int64_t grain) {
  if (end <= begin || grain <= 0) return 0;
  return (end - begin + grain - 1) / grain;
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  run_region(begin, end, grain,
             [&fn](std::int64_t, std::int64_t b, std::int64_t e, int) {
               fn(b, e);
             });
}

void parallel_for_chunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t, int)>&
        fn) {
  run_region(begin, end, grain, fn);
}

}  // namespace dv
