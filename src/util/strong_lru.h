// Fixed-capacity strong-hash LRU cache for temporally redundant streams
// (docs/CACHING.md, DESIGN.md §13). It backs the scorer's one frame
// cache, core/activation_cache.h.
//
// The key is a 128-bit FNV-1a-style hash over the raw bytes of the input
// (a camera frame) — wide enough that accidental collisions are out of
// reach, so the cache never stores the hashed bytes themselves. The index
// is an open-addressed, linearly probed table over a fixed entry pool
// threaded onto an intrusive LRU list.
//
// Determinism contract: every capacity and eviction decision is a pure
// function of the operation sequence — no timestamps, no thread identity,
// no allocator addresses. Callers mutate a cache from one logical stream
// at a time (the serving worker); under that contract the cache contents
// after N operations are identical for any DV_THREADS and any DV_SIMD
// level, which is what makes cached scores bitwise equal to uncached ones
// (ctest-enforced in tests/test_cache.cpp).
//
// Observability: a cache constructed with a label records
// dv_cache_{hits,misses,evictions}_total{cache="<label>"} counters and
// keeps the dv_cache_bytes{cache="<label>"} gauge at the byte total over
// every live cache sharing that label (every scorer's frame cache adds to
// the one "activation" series). Unlabeled caches record nothing.
//
// The process-wide knobs (DV_CACHE=off, DV_CACHE_CAPACITY=N) are read
// once at startup; set_cache_enabled / set_cache_capacity override them
// in-process for tests and benches, mirroring set_thread_count and
// set_simd_level on the other determinism axes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/metrics.h"

namespace dv {

// ---------------------------------------------------------------------------
// Process-wide cache knobs (strong_lru.cpp).

/// True unless DV_CACHE=off|0|false in the environment (or
/// set_cache_enabled(false)). Call sites skip cache probes entirely when
/// off, so disabled runs touch no cache state.
bool cache_enabled();

/// Overrides the DV_CACHE environment switch (tests and benches).
void set_cache_enabled(bool enabled);

/// Entry capacity a new cache gets by default: DV_CACHE_CAPACITY, or 1024
/// when unset. 0 behaves like DV_CACHE=off.
std::size_t cache_capacity();

/// Overrides DV_CACHE_CAPACITY in-process for caches constructed
/// afterwards; a live cache keeps its capacity.
void set_cache_capacity(std::size_t capacity);

// ---------------------------------------------------------------------------
// 128-bit strong hash.

/// FNV-1a-style 128-bit hash over raw bytes, mixed a 64-bit word at a
/// time with a sequential byte tail and a final length fold. Stable for
/// the life of a process and across processes on the same platform —
/// exactly the scope a runtime cache key needs.
struct strong_hash {
  std::uint64_t hi{0};
  std::uint64_t lo{0};

  friend bool operator==(const strong_hash&, const strong_hash&) = default;

  static strong_hash of_bytes(const void* data, std::size_t size);
};

namespace cache_detail {

/// One-shot counter bump for dv_cache_<what>_total{cache="<label>"}; the
/// name is precomposed by the cache so the hot path does no formatting.
void record_count(const std::string& series_name);

/// Adds `delta` to the process-wide byte total of `label` and publishes
/// it as dv_cache_bytes{cache="<label>"} when metrics are on. Totals
/// survive metrics::reset() (the registry is re-populated on next use).
void update_label_bytes(const std::string& label, std::int64_t delta);

std::string counter_name(const std::string& label, const char* what);

}  // namespace cache_detail

// ---------------------------------------------------------------------------
// The cache.

/// Fixed-capacity LRU keyed by strong_hash. Value must be movable.
/// Not internally synchronized: one logical mutator stream per instance
/// (see the determinism contract above).
template <typename Value>
class strong_lru_cache {
 public:
  /// Zero-capacity cache: every find misses, insert is a no-op.
  strong_lru_cache() = default;

  /// `label` names the dv_cache_* metric series; empty = unobserved.
  explicit strong_lru_cache(std::size_t capacity, std::string label = {})
      : capacity_{capacity}, label_{std::move(label)} {
    if (!label_.empty()) {
      hits_name_ = cache_detail::counter_name(label_, "hits");
      misses_name_ = cache_detail::counter_name(label_, "misses");
      evictions_name_ = cache_detail::counter_name(label_, "evictions");
    }
    if (capacity_ > 0) {
      entries_.reserve(capacity_);
      std::size_t buckets = 8;
      while (buckets < 2 * capacity_) buckets *= 2;
      table_.assign(buckets, npos);
      mask_ = buckets - 1;
    }
  }

  strong_lru_cache(const strong_lru_cache& other)
      : capacity_{other.capacity_},
        label_{other.label_},
        hits_name_{other.hits_name_},
        misses_name_{other.misses_name_},
        evictions_name_{other.evictions_name_},
        entries_{other.entries_},
        free_{other.free_},
        table_{other.table_},
        mask_{other.mask_},
        head_{other.head_},
        tail_{other.tail_},
        bytes_{other.bytes_},
        hits_{other.hits_},
        misses_{other.misses_},
        evictions_{other.evictions_} {
    if (!label_.empty() && bytes_ > 0) {
      cache_detail::update_label_bytes(label_,
                                       static_cast<std::int64_t>(bytes_));
    }
  }

  strong_lru_cache(strong_lru_cache&& other) noexcept { swap(other); }

  strong_lru_cache& operator=(strong_lru_cache other) noexcept {
    swap(other);
    return *this;
  }

  ~strong_lru_cache() { release_bytes(); }

  /// The cached value for `key`, refreshed to most-recently-used, or
  /// nullptr. Counts one hit or miss. The pointer stays valid until the
  /// next insert() on this cache.
  Value* find(const strong_hash& key) {
    const std::size_t slot = find_slot(key);
    if (slot == npos) {
      ++misses_;
      if (!misses_name_.empty()) cache_detail::record_count(misses_name_);
      return nullptr;
    }
    touch(table_[slot]);
    ++hits_;
    if (!hits_name_.empty()) cache_detail::record_count(hits_name_);
    return &entries_[table_[slot]].value;
  }

  /// True when `key` is cached. No stats, no LRU refresh.
  bool contains(const strong_hash& key) const {
    return find_slot(key) != npos;
  }

  /// Inserts (or updates and refreshes) `key`. `value_bytes` is the
  /// payload size accounted to the bytes gauge. When the cache is full
  /// the least-recently-used entry is evicted first — a decision that
  /// depends only on the operation sequence, never on timing.
  void insert(const strong_hash& key, Value value,
              std::size_t value_bytes = sizeof(Value)) {
    if (capacity_ == 0) return;
    const std::size_t slot = find_slot(key);
    if (slot != npos) {
      entry& e = entries_[table_[slot]];
      account_bytes(static_cast<std::int64_t>(value_bytes) -
                    static_cast<std::int64_t>(e.bytes));
      e.value = std::move(value);
      e.bytes = value_bytes;
      touch(table_[slot]);
      return;
    }
    if (entries_.size() - free_.size() >= capacity_) evict_lru();
    std::size_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
      entries_[index] = entry{key, std::move(value), value_bytes, npos, npos};
    } else {
      index = entries_.size();
      entries_.push_back(entry{key, std::move(value), value_bytes, npos, npos});
    }
    table_insert(key, index);
    link_front(index);
    account_bytes(static_cast<std::int64_t>(value_bytes));
  }

  /// Drops every entry (stats counters keep their totals).
  void clear() {
    release_bytes();
    entries_.clear();
    free_.clear();
    if (!table_.empty()) table_.assign(table_.size(), npos);
    head_ = tail_ = npos;
    bytes_ = 0;
  }

  std::size_t size() const { return entries_.size() - free_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Payload bytes currently cached (the per-insert value_bytes sum).
  std::size_t bytes() const { return bytes_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  const std::string& label() const { return label_; }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  struct entry {
    strong_hash key;
    Value value;
    std::size_t bytes{0};
    std::size_t lru_prev{npos};
    std::size_t lru_next{npos};
  };

  void swap(strong_lru_cache& other) noexcept {
    std::swap(capacity_, other.capacity_);
    std::swap(label_, other.label_);
    std::swap(hits_name_, other.hits_name_);
    std::swap(misses_name_, other.misses_name_);
    std::swap(evictions_name_, other.evictions_name_);
    std::swap(entries_, other.entries_);
    std::swap(free_, other.free_);
    std::swap(table_, other.table_);
    std::swap(mask_, other.mask_);
    std::swap(head_, other.head_);
    std::swap(tail_, other.tail_);
    std::swap(bytes_, other.bytes_);
    std::swap(hits_, other.hits_);
    std::swap(misses_, other.misses_);
    std::swap(evictions_, other.evictions_);
  }

  std::size_t home(const strong_hash& key) const { return key.lo & mask_; }

  /// Table slot holding `key`, or npos. Linear probing; a run of occupied
  /// slots is always contiguous from each member's home bucket (the
  /// backward-shift erase below maintains that invariant).
  std::size_t find_slot(const strong_hash& key) const {
    if (capacity_ == 0) return npos;
    std::size_t slot = home(key);
    while (table_[slot] != npos) {
      if (entries_[table_[slot]].key == key) return slot;
      slot = (slot + 1) & mask_;
    }
    return npos;
  }

  void table_insert(const strong_hash& key, std::size_t index) {
    std::size_t slot = home(key);
    while (table_[slot] != npos) slot = (slot + 1) & mask_;
    table_[slot] = index;
  }

  /// Backward-shift deletion: close the gap so later probes in the same
  /// cluster stay reachable without tombstones.
  void table_erase(std::size_t slot) {
    std::size_t hole = slot;
    table_[hole] = npos;
    std::size_t probe = hole;
    while (true) {
      probe = (probe + 1) & mask_;
      if (table_[probe] == npos) return;
      const std::size_t want = home(entries_[table_[probe]].key);
      // Move the entry back iff its home bucket lies cyclically at or
      // before the hole (it could have been placed there originally).
      if (((probe - want) & mask_) >= ((probe - hole) & mask_)) {
        table_[hole] = table_[probe];
        table_[probe] = npos;
        hole = probe;
      }
    }
  }

  void link_front(std::size_t index) {
    entry& e = entries_[index];
    e.lru_prev = npos;
    e.lru_next = head_;
    if (head_ != npos) entries_[head_].lru_prev = index;
    head_ = index;
    if (tail_ == npos) tail_ = index;
  }

  void unlink(std::size_t index) {
    entry& e = entries_[index];
    if (e.lru_prev != npos) {
      entries_[e.lru_prev].lru_next = e.lru_next;
    } else {
      head_ = e.lru_next;
    }
    if (e.lru_next != npos) {
      entries_[e.lru_next].lru_prev = e.lru_prev;
    } else {
      tail_ = e.lru_prev;
    }
    e.lru_prev = e.lru_next = npos;
  }

  void touch(std::size_t index) {
    if (head_ == index) return;
    unlink(index);
    link_front(index);
  }

  void evict_lru() {
    const std::size_t victim = tail_;
    const std::size_t slot = find_slot(entries_[victim].key);
    table_erase(slot);
    unlink(victim);
    account_bytes(-static_cast<std::int64_t>(entries_[victim].bytes));
    entries_[victim].value = Value{};
    entries_[victim].bytes = 0;
    free_.push_back(victim);
    ++evictions_;
    if (!evictions_name_.empty()) cache_detail::record_count(evictions_name_);
  }

  void account_bytes(std::int64_t delta) {
    bytes_ = static_cast<std::size_t>(static_cast<std::int64_t>(bytes_) +
                                      delta);
    if (!label_.empty()) cache_detail::update_label_bytes(label_, delta);
  }

  void release_bytes() {
    if (!label_.empty() && bytes_ > 0) {
      cache_detail::update_label_bytes(
          label_, -static_cast<std::int64_t>(bytes_));
    }
  }

  std::size_t capacity_{0};
  std::string label_;
  std::string hits_name_;
  std::string misses_name_;
  std::string evictions_name_;
  std::vector<entry> entries_;
  std::vector<std::size_t> free_;
  std::vector<std::size_t> table_;
  std::size_t mask_{0};
  std::size_t head_{npos};
  std::size_t tail_{npos};
  std::size_t bytes_{0};
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
  std::uint64_t evictions_{0};
};

}  // namespace dv
