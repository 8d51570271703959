// The per-router slot table of Section II: S recurrent time slots; for each
// slot and each input port, a valid bit plus an output-port id. A valid entry
// at slot s means "at cycles ≡ s (mod S_active), the crossbar connection
// in -> out is reserved for a circuit-switched flit".
//
// Reservation semantics follow Figure 1 exactly:
//  * reservations cover `duration` consecutive slots, modulo the active size;
//  * a reservation fails if any covered (slot, in) entry is already valid
//    (input conflict, Figure 1 setup 2);
//  * or if any other input holds the same output at a covered slot
//    (output conflict, Figure 1 setup 3);
//  * failed reservations leave the table untouched;
//  * teardown resets the valid bits so slots can be reused.
//
// Each entry additionally records the id of the setup message that created
// it (its *owner*) and the cycle it was last reserved or used. The owner tag
// fences teardowns: a teardown releases only entries its own setup wrote, so
// a late, duplicated or mis-addressed teardown can never destroy another
// connection's reservations. The use stamp backs a lease: entries that carry
// no circuit traffic for a long time are reclaimed (expire_older_than),
// bounding the damage of a lost teardown.
//
// Storage is sharded by input port: one entry column and one expiry-bucket
// index per port, with per-port valid counts. A reservation only ever lives
// under its input port, so the lease sweep and the consistency audit skip
// whole ports the moment their count is zero — on a quiet router that turns
// the periodic sweeps into five integer reads instead of a walk over the
// dense active x kNumPorts array.
//
// Columns are allocated on first write. A port's column (capacity entries)
// and the per-slot output mask stay empty until a reservation or a restored
// entry lands there; until then every read answers "invalid". Most routers
// never hold a circuit, and at 256 slots five eager columns cost 40 KB per
// router, which at 32x32 spreads each router's hot state across the heap.
//
// Section II-C's dynamic time-division granularity is supported through the
// active size: only the first `active` entries participate (arithmetic is
// modulo `active`); the rest are power-gated. Growing the active size resets
// the table (the paper: "all slot tables are reset, and the path setup
// procedure restarts").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/pool.hpp"
#include "common/types.hpp"

namespace hybridnoc {

class StateWriter;
class StateReader;

class SlotTable {
 public:
  /// `capacity` is the physical table size; `active` the initially powered
  /// region. Both must be powers of two, active <= capacity.
  SlotTable(int capacity, int active);

  int capacity() const { return capacity_; }
  int active_size() const { return active_; }

  /// Slot index a given cycle maps to.
  int slot_of(Cycle cycle) const { return static_cast<int>(cycle) & (active_ - 1); }

  /// Would reserving [slot, slot+duration) for in->out succeed?
  bool can_reserve(int slot, int duration, Port in, Port out) const;

  /// Reserve; returns false (table unchanged) on any conflict. `owner` tags
  /// the entries with the reserving setup's packet id (0 = untagged); `now`
  /// initialises the lease stamp.
  bool reserve(int slot, int duration, Port in, Port out, PacketId owner = 0,
               Cycle now = 0);

  /// Invalidate [slot, slot+duration) for `in`. Entries already invalid are
  /// ignored (a teardown may race a smaller prior release), and when
  /// `owner` is nonzero so are entries written by a different setup — a
  /// stale teardown must not release a newer connection's slots. Returns the
  /// output port of the first valid released entry, if any.
  std::optional<Port> release(int slot, int duration, Port in,
                              PacketId owner = 0);

  /// Valid entry for (cycle, in), if any.
  std::optional<Port> lookup(Cycle cycle, Port in) const;
  std::optional<Port> lookup_slot(int slot, Port in) const;

  /// Owner tag of the valid entry at (slot, in), if any.
  std::optional<PacketId> owner_at(int slot, Port in) const;

  /// Refresh the lease stamp of the valid entries [slot, slot+count) for
  /// `in`; called when circuit traffic traverses a reservation window.
  void refresh(int slot, int count, Port in, Cycle now);

  /// Release every valid entry whose lease stamp is older than `cutoff`,
  /// invoking `on_expire(slot, in)` for each released entry. Returns the
  /// number of entries released. This is the backstop that reclaims
  /// reservations orphaned by lost teardown messages.
  ///
  /// Ports with no valid entries are skipped outright. With expiry tracking
  /// on (the default), each port's entries are bucketed by
  /// stamp >> kExpiryBucketShift, so a sweep visits only buckets that can
  /// hold expirable stamps — O(expired + stale refs retired + one straddling
  /// bucket per port) instead of a full active x kNumPorts scan. Bucket
  /// references go stale when an entry is released or re-stamped; they are
  /// validated (and discarded) lazily here, which keeps reserve/refresh O(1).
  ///
  /// Expiry order is port-major (all of port 0's expirations before port
  /// 1's). Callers' on_expire actions (DLT invalidation, counter bumps) are
  /// commutative across entries, so the order is not observable.
  template <typename ExpireFn>
  int expire_older_than(Cycle cutoff, ExpireFn&& on_expire) {
    int expired = 0;
    for (int j = 0; j < kNumPorts; ++j) {
      if (valid_by_port_[static_cast<size_t>(j)] == 0) continue;
      const Port in = static_cast<Port>(j);
      if (!track_expiry_) {
        for (int s = 0; s < active_; ++s) {
          Entry& e = at(s, in);
          if (!e.valid || e.stamp >= cutoff) continue;
          invalidate(s, in, e);
          ++expired;
          on_expire(s, in);
        }
        continue;
      }
      auto& buckets = expiry_buckets_[static_cast<size_t>(j)];
      auto it = buckets.begin();
      // A bucket with key K holds stamps in [K << shift, (K+1) << shift); it
      // can contain expirable entries only if its lowest stamp is < cutoff.
      while (it != buckets.end() &&
             (it->first << kExpiryBucketShift) < cutoff) {
        SlotList survivors;
        for (const std::uint32_t slot : it->second) {
          Entry& e = at(static_cast<int>(slot), in);
          if (!e.valid || e.bucket != it->first) continue;  // stale reference
          if (e.stamp >= cutoff) {  // straddling bucket: not old enough yet
            survivors.push_back(slot);
            continue;
          }
          invalidate(static_cast<int>(slot), in, e);
          ++expired;
          on_expire(static_cast<int>(slot), in);
        }
        if (survivors.empty()) {
          it = buckets.erase(it);
        } else {
          it->second = std::move(survivors);
          ++it;
        }
      }
    }
    return expired;
  }

  /// Enable/disable the expiry-bucket index. Routers disable it when the
  /// reservation lease is off so reserve/refresh carry no bookkeeping;
  /// enabling it (re)builds the index from the current valid entries.
  void set_expiry_tracking(bool on);

  /// Some input holds `out` at the slot of `cycle`? Returns that input.
  std::optional<Port> output_reserved_at(Cycle cycle, Port out) const;

  /// Fraction of (active slot, input) entries that are valid.
  double occupancy() const;
  int valid_entries() const {
    int total = 0;
    for (const int c : valid_by_port_) total += c;
    return total;
  }
  /// Valid entries under one input port — lets sweeps and audits skip a
  /// port's whole column in O(1).
  int valid_entries(Port in) const {
    return valid_by_port_[static_cast<size_t>(in)];
  }

  /// Bytes held by the entry columns and the output mask (0 until the first
  /// write; see the header comment).
  std::size_t storage_bytes() const;

  /// True if all entries [slot, slot+duration) for `in` are invalid —
  /// the NI-side pre-check before proposing a slot id for a setup.
  bool input_free(int slot, int duration, Port in) const;

  /// Clear all reservations.
  void reset();

  /// Double the active region (clears the table). No-op at capacity.
  /// Returns true if the size changed.
  bool grow();

  /// Set the active region explicitly (clears the table).
  void set_active_size(int active);

  /// Checkpoint: serialize active size, tracking mode and every valid entry
  /// (sparse — owner/stamp/out per valid slot). The expiry-bucket index is
  /// not serialized; restore rebuilds it, which preserves behaviour because
  /// expiry callbacks are commutative across entries (see expire_older_than).
  void save_state(StateWriter& w) const;
  /// Restores into a table of the same capacity; throws StateError on a
  /// structural mismatch (never aborts — a bad archive means "recompute").
  void restore_state(StateReader& r);

 private:
  /// 1024-cycle expiry buckets, matching the routers' sweep cadence.
  static constexpr int kExpiryBucketShift = 10;
  static constexpr Cycle kNoExpiryBucket = kCycleNever;

  struct Entry {
    bool valid = false;
    Port out = Port::Local;
    PacketId owner = 0;  ///< id of the setup that wrote the entry
    Cycle stamp = 0;     ///< last reserve/traversal cycle (lease clock)
    /// Expiry bucket this entry was last indexed under (kNoExpiryBucket =
    /// none); detects stale bucket references after release/re-stamp.
    Cycle bucket = kNoExpiryBucket;
  };
  Entry& at(int slot, Port in) {
    return entries_[static_cast<size_t>(in)][static_cast<size_t>(slot)];
  }
  const Entry& at(int slot, Port in) const {
    return entries_[static_cast<size_t>(in)][static_cast<size_t>(slot)];
  }
  /// The column of `in`, allocated on first use. Only writers call this;
  /// readers check valid_by_port_ first, which is 0 for an empty column.
  std::vector<Entry>& column(Port in);
  int wrap(int slot) const { return slot & (active_ - 1); }
  /// Outputs reserved at slot `s` (0 while the mask is unallocated).
  std::uint8_t mask_at(int s) const {
    return out_mask_.empty() ? std::uint8_t{0} : out_mask_[static_cast<size_t>(s)];
  }
  static std::uint8_t out_bit(Port out) {
    return static_cast<std::uint8_t>(1u << static_cast<unsigned>(out));
  }
  /// Drop the valid entry `e` at (slot, in) from every index.
  void invalidate(int slot, Port in, Entry& e) {
    e.valid = false;
    e.bucket = kNoExpiryBucket;  // any bucket reference to it is now stale
    --valid_by_port_[static_cast<size_t>(in)];
    out_mask_[static_cast<size_t>(slot)] &= static_cast<std::uint8_t>(~out_bit(e.out));
  }
  /// Index (or re-index) a just-stamped valid entry at (slot, in).
  void note_expiry(int slot, Port in, Entry& e) {
    if (!track_expiry_) return;
    const Cycle key = e.stamp >> kExpiryBucketShift;
    if (e.bucket == key) return;  // the existing reference still finds it
    e.bucket = key;
    expiry_buckets_[static_cast<size_t>(in)][key].push_back(
        static_cast<std::uint32_t>(slot));
  }

  int capacity_;
  int active_;
  /// One entry column per input port: empty, or `capacity` slots long.
  std::array<std::vector<Entry>, kNumPorts> entries_;
  std::array<int, kNumPorts> valid_by_port_{};
  /// Per slot: bit o set <=> some input's valid entry there holds output o
  /// (at most one can, see can_reserve). Makes the output-conflict check
  /// and the common "output free" answer of output_reserved_at one bit test.
  /// Empty (every mask 0) until the first column is allocated.
  std::vector<std::uint8_t> out_mask_;
  bool track_expiry_ = true;
  /// Per input port: stamp bucket -> slot indices, lazily validated.
  /// The ordered map keeps sweeps in deterministic ascending-bucket order;
  /// nodes and index storage are pool-backed because new stamp buckets keep
  /// appearing as simulated time advances — the one slot-table operation
  /// that would otherwise enter the allocator in steady state.
  using SlotList = std::vector<std::uint32_t, PoolAlloc<std::uint32_t>>;
  std::array<PooledMap<Cycle, SlotList>, kNumPorts> expiry_buckets_;
};

}  // namespace hybridnoc
