// Allocation / packet-lifetime telemetry. The counters make the
// "allocation-free, refcount-free" property of the loaded path measurable:
// tools/profile_tick surfaces them per run and the steady-state
// zero-allocation test asserts the heap side directly.
//
// Thread-safety: share nothing. Each thread bumps its own instance()
// (thread_local, plain integers, no atomic read-modify-write), so concurrent
// sweep workers never write a common cache line. A network's counts are the
// delta of the thread that constructs and ticks it, plus the per-cycle
// deltas the parallel tick engine's shard workers fold in (see
// Network::tick_profile); a network ticked by one sweep worker therefore
// counts only its own packets.
#pragma once

#include <cstdint>

namespace hybridnoc {

struct AllocStats {
  /// Packets minted through make_packet (injection, clones, acks).
  std::uint64_t packets_minted = 0;
  /// Pooled allocations served from a free list vs falling through to
  /// operator new (misses include first-touch warmup and >1 KiB blocks).
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  /// Packet flight-anchor acquire/release pairs: the total shared_ptr
  /// refcount traffic of the flit path, now two ops per packet instead of
  /// two per flit copy.
  std::uint64_t flight_acquires = 0;
  std::uint64_t flight_releases = 0;

  /// The calling thread's counters.
  static AllocStats& instance() {
    thread_local AllocStats s;
    return s;
  }

  AllocStats& operator+=(const AllocStats& o) {
    packets_minted += o.packets_minted;
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    flight_acquires += o.flight_acquires;
    flight_releases += o.flight_releases;
    return *this;
  }

  friend AllocStats operator-(AllocStats a, const AllocStats& b) {
    a.packets_minted -= b.packets_minted;
    a.pool_hits -= b.pool_hits;
    a.pool_misses -= b.pool_misses;
    a.flight_acquires -= b.flight_acquires;
    a.flight_releases -= b.flight_releases;
    return a;
  }
};

}  // namespace hybridnoc
