#include "tdm/slot_table.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/state_io.hpp"

namespace hybridnoc {

namespace {
bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }
}  // namespace

SlotTable::SlotTable(int capacity, int active)
    : capacity_(capacity), active_(active) {
  HN_CHECK(is_pow2(capacity) && is_pow2(active) && active <= capacity);
}

std::vector<SlotTable::Entry>& SlotTable::column(Port in) {
  auto& col = entries_[static_cast<size_t>(in)];
  if (col.empty()) {
    col.resize(static_cast<size_t>(capacity_));
    if (out_mask_.empty()) out_mask_.assign(static_cast<size_t>(capacity_), 0);
  }
  return col;
}

std::size_t SlotTable::storage_bytes() const {
  std::size_t bytes = out_mask_.capacity() * sizeof(std::uint8_t);
  for (const auto& col : entries_) bytes += col.capacity() * sizeof(Entry);
  return bytes;
}

bool SlotTable::can_reserve(int slot, int duration, Port in, Port out) const {
  HN_CHECK(duration >= 1 && duration <= active_);
  if (out_mask_.empty()) return true;  // no column allocated: all invalid
  const bool in_used = valid_by_port_[static_cast<size_t>(in)] != 0;
  for (int d = 0; d < duration; ++d) {
    const int s = wrap(slot + d);
    if (in_used && at(s, in).valid) return false;  // input conflict (Fig 1, setup 2)
    // Output conflict (setup 3). `in` itself holds nothing at s (checked
    // above), so a set bit always belongs to another input.
    if (out_mask_[static_cast<size_t>(s)] & out_bit(out)) return false;
  }
  return true;
}

bool SlotTable::reserve(int slot, int duration, Port in, Port out,
                        PacketId owner, Cycle now) {
  if (!can_reserve(slot, duration, in, out)) return false;
  std::vector<Entry>& col = column(in);
  for (int d = 0; d < duration; ++d) {
    const int s = wrap(slot + d);
    Entry& e = col[static_cast<size_t>(s)];
    e.valid = true;
    e.out = out;
    e.owner = owner;
    e.stamp = now;
    ++valid_by_port_[static_cast<size_t>(in)];
    out_mask_[static_cast<size_t>(s)] |= out_bit(out);
    note_expiry(s, in, e);
  }
  return true;
}

std::optional<Port> SlotTable::release(int slot, int duration, Port in,
                                       PacketId owner) {
  std::optional<Port> first_out;
  if (valid_by_port_[static_cast<size_t>(in)] == 0) return first_out;
  for (int d = 0; d < duration; ++d) {
    const int s = wrap(slot + d);
    Entry& e = at(s, in);
    if (!e.valid) continue;
    if (owner != 0 && e.owner != owner) continue;  // someone else's entry
    if (!first_out) first_out = e.out;
    invalidate(s, in, e);
  }
  return first_out;
}

std::optional<Port> SlotTable::lookup(Cycle cycle, Port in) const {
  return lookup_slot(slot_of(cycle), in);
}

std::optional<Port> SlotTable::lookup_slot(int slot, Port in) const {
  if (valid_by_port_[static_cast<size_t>(in)] == 0) return std::nullopt;
  const Entry& e = at(wrap(slot), in);
  if (!e.valid) return std::nullopt;
  return e.out;
}

std::optional<PacketId> SlotTable::owner_at(int slot, Port in) const {
  if (valid_by_port_[static_cast<size_t>(in)] == 0) return std::nullopt;
  const Entry& e = at(wrap(slot), in);
  if (!e.valid) return std::nullopt;
  return e.owner;
}

void SlotTable::refresh(int slot, int count, Port in, Cycle now) {
  if (valid_by_port_[static_cast<size_t>(in)] == 0) return;
  for (int d = 0; d < count; ++d) {
    const int s = wrap(slot + d);
    Entry& e = at(s, in);
    if (!e.valid) continue;
    e.stamp = now;
    note_expiry(s, in, e);
  }
}

std::optional<Port> SlotTable::output_reserved_at(Cycle cycle, Port out) const {
  const int s = slot_of(cycle);
  if (!(mask_at(s) & out_bit(out))) return std::nullopt;
  for (int j = 0; j < kNumPorts; ++j) {
    if (valid_by_port_[static_cast<size_t>(j)] == 0) continue;
    const Entry& e = at(s, static_cast<Port>(j));
    if (e.valid && e.out == out) return static_cast<Port>(j);
  }
  return std::nullopt;
}

double SlotTable::occupancy() const {
  return static_cast<double>(valid_entries()) /
         (static_cast<double>(active_) * kNumPorts);
}

bool SlotTable::input_free(int slot, int duration, Port in) const {
  if (valid_by_port_[static_cast<size_t>(in)] == 0) return true;
  for (int d = 0; d < duration; ++d) {
    if (at(wrap(slot + d), in).valid) return false;
  }
  return true;
}

void SlotTable::reset() {
  for (auto& col : entries_) {
    for (auto& e : col) {
      e.valid = false;
      e.bucket = kNoExpiryBucket;
    }
  }
  valid_by_port_.fill(0);
  std::fill(out_mask_.begin(), out_mask_.end(), std::uint8_t{0});
  for (auto& buckets : expiry_buckets_) buckets.clear();
}

void SlotTable::set_expiry_tracking(bool on) {
  if (track_expiry_ == on) return;
  track_expiry_ = on;
  for (auto& buckets : expiry_buckets_) buckets.clear();
  for (auto& col : entries_) {
    for (auto& e : col) e.bucket = kNoExpiryBucket;
  }
  if (!on) return;
  for (int j = 0; j < kNumPorts; ++j) {
    const Port in = static_cast<Port>(j);
    if (valid_by_port_[static_cast<size_t>(j)] == 0) continue;
    for (int s = 0; s < capacity_; ++s) {
      Entry& e = at(s, in);
      if (e.valid) note_expiry(s, in, e);
    }
  }
}

bool SlotTable::grow() {
  if (active_ == capacity_) return false;
  set_active_size(active_ * 2);
  return true;
}

void SlotTable::set_active_size(int active) {
  HN_CHECK(is_pow2(active) && active <= capacity_);
  reset();
  active_ = active;
}

void SlotTable::save_state(StateWriter& w) const {
  w.section("slot_table");
  w.i32(capacity_);
  w.i32(active_);
  w.b(track_expiry_);
  for (int j = 0; j < kNumPorts; ++j) {
    const Port in = static_cast<Port>(j);
    const int valid = valid_by_port_[static_cast<size_t>(j)];
    w.i32(valid);
    if (valid == 0) continue;  // possibly unallocated column
    for (int s = 0; s < active_; ++s) {
      const Entry& e = at(s, in);
      if (!e.valid) continue;
      w.i32(s);
      w.u8(static_cast<std::uint8_t>(e.out));
      w.u64(e.owner);
      w.u64(e.stamp);
    }
  }
}

void SlotTable::restore_state(StateReader& r) {
  r.section("slot_table");
  const int capacity = r.i32();
  if (capacity != capacity_) throw StateError("slot-table capacity mismatch");
  const int active = r.i32();
  if (!is_pow2(active) || active > capacity_) {
    throw StateError("slot-table active size invalid");
  }
  const bool track = r.b();
  // Rebuild with tracking off so the entry fill carries no bucket
  // bookkeeping, then re-enable to reindex from the restored entries.
  const bool had_tracking = track_expiry_;
  if (had_tracking) set_expiry_tracking(false);
  set_active_size(active);
  for (int j = 0; j < kNumPorts; ++j) {
    const Port in = static_cast<Port>(j);
    const int valid = r.i32();
    if (valid < 0 || valid > active) {
      throw StateError("slot-table valid count out of range");
    }
    if (valid == 0) continue;  // leave an unallocated column unallocated
    std::vector<Entry>& col = column(in);
    for (int n = 0; n < valid; ++n) {
      const int s = r.i32();
      if (s < 0 || s >= active) throw StateError("slot index out of range");
      Entry& e = col[static_cast<size_t>(s)];
      if (e.valid) throw StateError("duplicate slot entry");
      e.valid = true;
      e.out = static_cast<Port>(r.u8());
      if (static_cast<int>(e.out) >= kNumPorts) {
        throw StateError("slot entry port out of range");
      }
      e.owner = r.u64();
      e.stamp = r.u64();
      ++valid_by_port_[static_cast<size_t>(j)];
      // can_reserve never lets two inputs hold one output at a slot.
      std::uint8_t& mask = out_mask_[static_cast<size_t>(s)];
      if (mask & out_bit(e.out)) {
        throw StateError("two slot entries hold one output");
      }
      mask |= out_bit(e.out);
    }
  }
  if (track) set_expiry_tracking(true);
}

}  // namespace hybridnoc
