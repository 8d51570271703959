// Block-recycling allocator for the simulator's hot heap objects.
//
// Packets are minted on every injection and freed on every delivery; under
// load at 64x64 that is tens of millions of identically-sized
// std::allocate_shared control blocks per run, and the general-purpose
// allocator's size-class lookup plus cross-thread free-list handling becomes a
// measurable slice of the cycle core. PoolAlloc routes those blocks through a
// bucketed free list instead: deallocation pushes the raw block onto the
// bucket for its size, allocation pops it back. Blocks never shrink or
// merge — every block in a bucket has exactly the bucket's size, so a pop is
// always a fit.
//
// Thread-safety: share nothing. Each thread owns its own pool (instance() is
// thread_local), so neither path takes a lock or touches a cache line another
// thread writes — concurrent sweep workers, each running its own network,
// never meet here. A block is plain bucket-sized memory from operator new,
// so a block freed on a thread other than the one that allocated it simply
// joins the freeing thread's list; that is the parallel tick engine's normal
// case (packets minted on the main thread, consumed on shard threads). A
// thread's cached blocks are returned to operator delete when the thread
// exits; a deallocation that arrives after that (a later thread_local
// destructor, or static destruction on the main thread) goes straight to
// operator delete as well.
//
// Sanitizer builds bypass recycling entirely: a recycled block would hide
// use-after-free bugs from asan (the memory stays live in the pool), so under
// asan/tsan/msan make_packet degrades to plain operator new/delete and keeps
// full poisoning coverage.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/alloc_stats.hpp"
#include "common/types.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HN_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define HN_POOL_DISABLED 1
#endif
#endif
#ifndef HN_POOL_DISABLED
#define HN_POOL_DISABLED 0
#endif

namespace hybridnoc {

/// Per-thread bucketed block pool backing PoolAlloc. Buckets are spaced a
/// cache line apart and capped in length so a burst (a storm test minting a
/// million packets, then idling) cannot pin unbounded memory. A free block
/// stores the next link of its bucket's list in its own first bytes.
class BlockPool {
 public:
  /// The calling thread's pool. Constant-initialized and trivially
  /// destructible, so the storage outlives every destructor of the thread.
  static BlockPool& instance() {
    thread_local BlockPool pool;
    return pool;
  }

  void* allocate(std::size_t bytes) {
    const int b = bucket_of(bytes);
    if (b >= 0 && enabled()) {
      const auto i = static_cast<std::size_t>(b);
      if (FreeBlock* head = head_[i]) {
        head_[i] = head->next;
        --count_[i];
        ++AllocStats::instance().pool_hits;
        return head;
      }
    }
    ++AllocStats::instance().pool_misses;
    return ::operator new(b >= 0 ? bucket_bytes(b) : bytes);
  }

  void deallocate(void* p, std::size_t bytes) {
    const int b = bucket_of(bytes);
    if (b >= 0 && enabled() && !dead_) {
      const auto i = static_cast<std::size_t>(b);
      if (count_[i] < kMaxPerBucket) {
        if (!armed_) arm();
        head_[i] = ::new (p) FreeBlock{head_[i]};
        ++count_[i];
        return;
      }
    }
    ::operator delete(p);
  }

  /// Runtime recycling switch, process-wide (a relaxed load on the hot
  /// path). Off = every PoolAlloc allocation degrades to plain operator
  /// new/delete, the same shared_ptr-compatible fallback the sanitizer
  /// builds use — which is how the pool-on/pool-off twin-run test and the
  /// asan leg exercise that path explicitly. Blocks allocated while the
  /// pool was on still free correctly after a toggle: bucket sizes are
  /// deterministic from the request size, and a disabled deallocate simply
  /// returns the block to the system allocator instead of a free list.
  /// Compile-time HN_POOL_DISABLED (sanitizers) overrides this to off.
  static bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }
  static void set_enabled(bool on) { enabled_flag().store(on, std::memory_order_relaxed); }

  /// Drops every block cached by the calling thread's pool (testing hook;
  /// makes pool-off runs start from the same cold allocator state as a
  /// fresh process).
  void trim() {
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      while (FreeBlock* head = head_[i]) {
        head_[i] = head->next;
        ::operator delete(head);
      }
      count_[i] = 0;
    }
  }

  /// Blocks cached by this pool across all buckets.
  std::size_t cached_blocks() const {
    std::size_t n = 0;
    for (const std::uint32_t c : count_) n += c;
    return n;
  }

 private:
  static constexpr std::size_t kBucketStep = 64;   ///< one cache line
  static constexpr std::size_t kNumBuckets = 16;   ///< up to 1 KiB blocks
  static constexpr std::uint32_t kMaxPerBucket = 4096;

  struct FreeBlock {
    FreeBlock* next;
  };

  /// Returns the thread's cached blocks at thread exit and retires the pool:
  /// later deallocations on this thread bypass it.
  struct Reaper {
    ~Reaper() {
      BlockPool& pool = instance();
      pool.trim();
      pool.dead_ = true;
    }
  };

  /// First block cached on this thread: register the exit-time Reaper.
  /// Kept out of line of the hot path (runs once per thread).
  [[gnu::noinline]] void arm() {
    thread_local Reaper reaper;
    (void)reaper;
    armed_ = true;
  }

  static int bucket_of(std::size_t bytes) {
    const std::size_t b = (bytes + kBucketStep - 1) / kBucketStep;
    return b >= 1 && b <= kNumBuckets ? static_cast<int>(b - 1) : -1;
  }
  static std::size_t bucket_bytes(int b) {
    return (static_cast<std::size_t>(b) + 1) * kBucketStep;
  }

  static std::atomic<bool>& enabled_flag() {
    static std::atomic<bool> on{true};
    return on;
  }

  FreeBlock* head_[kNumBuckets] = {};
  std::uint32_t count_[kNumBuckets] = {};
  bool armed_ = false;  ///< this thread's Reaper is registered
  bool dead_ = false;   ///< the Reaper has run (thread is exiting)
};

/// Stateless allocator adapter over BlockPool, usable with
/// std::allocate_shared (the packet + shared_ptr control block land in one
/// pooled allocation).
template <typename T>
struct PoolAlloc {
  using value_type = T;

  PoolAlloc() = default;
  template <typename U>
  PoolAlloc(const PoolAlloc<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
#if HN_POOL_DISABLED
    return static_cast<T*>(::operator new(n * sizeof(T)));
#else
    return static_cast<T*>(BlockPool::instance().allocate(n * sizeof(T)));
#endif
  }
  void deallocate(T* p, [[maybe_unused]] std::size_t n) {
#if HN_POOL_DISABLED
    ::operator delete(p);
#else
    BlockPool::instance().deallocate(p, n * sizeof(T));
#endif
  }

  template <typename U>
  bool operator==(const PoolAlloc<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const PoolAlloc<U>&) const {
    return false;
  }
};

/// Pool-backed drop-in aliases for the ordered/unordered containers that
/// insert on the steady-state path (NI assembly maps, e2e bookkeeping,
/// connection tables). Node allocations route through BlockPool, so after
/// warmup an insert/erase cycle touches only the free lists.
template <typename K, typename V, typename Cmp = std::less<K>>
using PooledMap = std::map<K, V, Cmp, PoolAlloc<std::pair<const K, V>>>;
template <typename K, typename Cmp = std::less<K>>
using PooledSet = std::set<K, Cmp, PoolAlloc<K>>;
template <typename K, typename V, typename Hash = std::hash<K>>
using PooledUMap =
    std::unordered_map<K, V, Hash, std::equal_to<K>, PoolAlloc<std::pair<const K, V>>>;
template <typename K, typename Hash = std::hash<K>>
using PooledUSet = std::unordered_set<K, Hash, std::equal_to<K>, PoolAlloc<K>>;

/// Mint a Packet whose storage (object + control block, fused by
/// allocate_shared) comes from the block pool. Drop-in replacement for
/// std::make_shared<Packet>() at every injection site.
inline PacketPtr make_packet() {
  ++AllocStats::instance().packets_minted;
  return std::allocate_shared<Packet>(PoolAlloc<Packet>{});
}

/// Pool-backed copy-construction (retransmission and hop-off clones). The
/// clone starts outside any flight: the copied self-anchor would otherwise
/// pin the *source* packet, and the clone's own flits are minted later.
inline PacketPtr make_packet(const Packet& src) {
  ++AllocStats::instance().packets_minted;
  PacketPtr p = std::allocate_shared<Packet>(PoolAlloc<Packet>{}, src);
  p->flight.reset();
  p->live_flits = 0;
  return p;
}

}  // namespace hybridnoc
