// Shared parallel runtime: a persistent worker pool plus parallel-for
// helpers with deterministic static chunking.
//
// Determinism contract: the decomposition of [begin, end) into chunks
// depends only on (begin, end, grain) — never on the thread count — and a
// chunk is always executed as one uninterrupted sequential loop. Code that
// writes disjoint outputs per index is therefore bit-identical for any
// DV_THREADS. Code that reduces must accumulate one partial per *chunk*
// (not per thread) and fold the partials in ascending chunk order after the
// loop; the result is then also independent of the thread count.
//
// The pool is a process-wide singleton sized from the DV_THREADS
// environment variable (default: std::thread::hardware_concurrency).
// Nested parallel regions execute sequentially on the calling worker, so
// library code can call parallel_for unconditionally. The workers serve one
// region at a time: a region entered while another thread's region holds
// them runs sequentially on its own caller, so independent threads may
// call parallel_for concurrently.
#pragma once

#include <cstdint>
#include <functional>

namespace dv {

/// Number of threads the shared pool currently runs with (>= 1).
int thread_count();

/// Resizes the shared pool. n <= 0 restores the DV_THREADS / hardware
/// default. Must not be called while a parallel region is executing.
void set_thread_count(int n);

/// Number of chunks [begin, end) decomposes into at the given grain:
/// ceil((end - begin) / grain). Depends only on the arguments, never on
/// the thread count.
std::int64_t parallel_chunk_count(std::int64_t begin, std::int64_t end,
                                  std::int64_t grain);

/// Runs fn(chunk_begin, chunk_end) over consecutive chunks of [begin, end)
/// of size `grain` (the last chunk may be short). Chunks are disjoint and
/// cover every index exactly once; any chunk may run on any thread.
/// Blocks until every chunk finished; the first exception thrown by a
/// chunk is rethrown on the caller.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

/// Like parallel_for but also passes the chunk index (for per-chunk
/// reduction slots, see the determinism contract above) and the rank of
/// the executing thread in [0, thread_count()). Ranks are not unique
/// across threads: every chunk of a nested or sequential region runs as
/// rank 0, possibly while another region's rank 0 runs elsewhere. Scratch
/// therefore lives in thread_local buffers, never in rank-indexed slots.
void parallel_for_chunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t chunk, std::int64_t chunk_begin,
                             std::int64_t chunk_end, int rank)>& fn);

}  // namespace dv
