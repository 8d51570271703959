#include "tdm/slot_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/state_io.hpp"

namespace hybridnoc {
namespace {

// Figure 1 of the paper, played back literally. The figure's in_1/in_2 map to
// West/North and out_3/out_4 to South/East; the table has 4 slots s0..s3.
TEST(SlotTable, Figure1Scenario) {
  SlotTable t(4, 4);

  // setup1: in_1 -> out_4, starting slot s3, duration 2. Succeeds; with
  // modulo-S reservation both s3 and s0 are taken.
  EXPECT_TRUE(t.reserve(3, 2, Port::West, Port::East));
  EXPECT_EQ(t.lookup_slot(3, Port::West), Port::East);
  EXPECT_EQ(t.lookup_slot(0, Port::West), Port::East);  // wrapped
  EXPECT_EQ(t.lookup_slot(1, Port::West), std::nullopt);
  EXPECT_EQ(t.lookup_slot(2, Port::West), std::nullopt);

  // setup2: in_1 -> out_3 at s3 fails — the slot is already allocated for
  // this input. Tables remain unchanged.
  EXPECT_FALSE(t.reserve(3, 1, Port::West, Port::South));
  EXPECT_EQ(t.lookup_slot(3, Port::West), Port::East);
  EXPECT_EQ(t.valid_entries(), 2);

  // setup3: in_2 -> out_4 at s3 fails — out_4 is reserved for in_1 at s3
  // (conflict at the output port).
  EXPECT_FALSE(t.reserve(3, 1, Port::North, Port::East));
  EXPECT_EQ(t.lookup_slot(3, Port::North), std::nullopt);
  EXPECT_EQ(t.valid_entries(), 2);

  // Teardown resets the valid bits so the slots can be reused.
  EXPECT_TRUE(t.release(3, 2, Port::West).has_value());
  EXPECT_EQ(t.valid_entries(), 0);
  EXPECT_TRUE(t.reserve(3, 1, Port::North, Port::East));
}

TEST(SlotTable, NonConflictingReservationsCoexist) {
  SlotTable t(8, 8);
  EXPECT_TRUE(t.reserve(0, 4, Port::West, Port::East));
  // Same slots, different input AND different output: fine.
  EXPECT_TRUE(t.reserve(0, 4, Port::North, Port::South));
  // Same output at disjoint slots: fine.
  EXPECT_TRUE(t.reserve(4, 4, Port::North, Port::East));
  EXPECT_EQ(t.valid_entries(), 12);
}

TEST(SlotTable, LookupByCycleUsesModuloActive) {
  SlotTable t(8, 8);
  ASSERT_TRUE(t.reserve(3, 1, Port::Local, Port::East));
  EXPECT_EQ(t.lookup(3, Port::Local), Port::East);
  EXPECT_EQ(t.lookup(11, Port::Local), Port::East);
  EXPECT_EQ(t.lookup(8 * 1000 + 3, Port::Local), Port::East);
  EXPECT_EQ(t.lookup(4, Port::Local), std::nullopt);
}

TEST(SlotTable, OutputReservedAtFindsOwner) {
  SlotTable t(8, 8);
  ASSERT_TRUE(t.reserve(2, 2, Port::West, Port::East));
  EXPECT_EQ(t.output_reserved_at(2, Port::East), Port::West);
  EXPECT_EQ(t.output_reserved_at(10, Port::East), Port::West);
  EXPECT_EQ(t.output_reserved_at(4, Port::East), std::nullopt);
  EXPECT_EQ(t.output_reserved_at(2, Port::South), std::nullopt);
}

TEST(SlotTable, OccupancyFraction) {
  SlotTable t(8, 8);
  EXPECT_DOUBLE_EQ(t.occupancy(), 0.0);
  ASSERT_TRUE(t.reserve(0, 4, Port::West, Port::East));
  EXPECT_DOUBLE_EQ(t.occupancy(), 4.0 / (8.0 * kNumPorts));
}

TEST(SlotTable, InputFreePreCheck) {
  SlotTable t(8, 8);
  ASSERT_TRUE(t.reserve(2, 2, Port::Local, Port::East));
  EXPECT_FALSE(t.input_free(2, 1, Port::Local));
  EXPECT_FALSE(t.input_free(1, 2, Port::Local));  // covers slot 2
  EXPECT_TRUE(t.input_free(4, 4, Port::Local));
  EXPECT_TRUE(t.input_free(2, 2, Port::West));  // other input unaffected
}

TEST(SlotTable, ReleaseIsIdempotentAndPartial) {
  SlotTable t(8, 8);
  ASSERT_TRUE(t.reserve(0, 4, Port::West, Port::East));
  EXPECT_EQ(t.release(0, 4, Port::West), Port::East);
  EXPECT_EQ(t.release(0, 4, Port::West), std::nullopt);  // nothing left
  EXPECT_EQ(t.valid_entries(), 0);
}

TEST(SlotTable, ActiveRegionGrowsAndResets) {
  SlotTable t(128, 16);
  EXPECT_EQ(t.active_size(), 16);
  ASSERT_TRUE(t.reserve(5, 4, Port::West, Port::East));
  EXPECT_TRUE(t.grow());
  EXPECT_EQ(t.active_size(), 32);
  EXPECT_EQ(t.valid_entries(), 0);  // reset on resize (Section II-C)
  // Slots beyond the old region are now addressable.
  EXPECT_TRUE(t.reserve(30, 2, Port::West, Port::East));
}

TEST(SlotTable, GrowSaturatesAtCapacity) {
  SlotTable t(32, 16);
  EXPECT_TRUE(t.grow());
  EXPECT_FALSE(t.grow());
  EXPECT_EQ(t.active_size(), 32);
}

TEST(SlotTable, WrapAroundDurationAtActiveBoundary) {
  SlotTable t(128, 16);  // active 16: slot 14 + duration 4 covers 14,15,0,1
  ASSERT_TRUE(t.reserve(14, 4, Port::Local, Port::East));
  EXPECT_EQ(t.lookup_slot(15, Port::Local), Port::East);
  EXPECT_EQ(t.lookup_slot(0, Port::Local), Port::East);
  EXPECT_EQ(t.lookup_slot(1, Port::Local), Port::East);
  EXPECT_EQ(t.lookup_slot(2, Port::Local), std::nullopt);
  // Cycle 16 maps to slot 0 in the active region.
  EXPECT_EQ(t.lookup(16, Port::Local), Port::East);
}

TEST(SlotTable, OwnerFencesRelease) {
  SlotTable t(16, 16);
  ASSERT_TRUE(t.reserve(4, 2, Port::West, Port::East, /*owner=*/7));
  EXPECT_EQ(t.owner_at(4, Port::West), PacketId{7});
  // A teardown tagged with a different setup id must not touch the entries.
  EXPECT_EQ(t.release(4, 2, Port::West, /*owner=*/9), std::nullopt);
  EXPECT_EQ(t.valid_entries(), 2);
  // The owning teardown releases them and reports the output port.
  EXPECT_EQ(t.release(4, 2, Port::West, /*owner=*/7), Port::East);
  EXPECT_EQ(t.valid_entries(), 0);
}

TEST(SlotTable, UntaggedReleaseIgnoresOwners) {
  SlotTable t(16, 16);
  ASSERT_TRUE(t.reserve(0, 2, Port::North, Port::South, /*owner=*/5));
  // owner 0 = untagged release (legacy callers): releases regardless.
  EXPECT_EQ(t.release(0, 2, Port::North), Port::South);
  EXPECT_EQ(t.valid_entries(), 0);
}

TEST(SlotTable, LeaseExpiryReclaimsStaleEntriesOnly) {
  SlotTable t(16, 16);
  ASSERT_TRUE(t.reserve(0, 2, Port::West, Port::East, 1, /*now=*/100));
  ASSERT_TRUE(t.reserve(8, 2, Port::North, Port::South, 2, /*now=*/100));
  // Circuit traffic keeps the second window fresh.
  t.refresh(8, 2, Port::North, /*now=*/900);
  int expired_slots = 0;
  const int n = t.expire_older_than(/*cutoff=*/500,
                                    [&](int, Port) { ++expired_slots; });
  EXPECT_EQ(n, 2);
  EXPECT_EQ(expired_slots, 2);
  EXPECT_EQ(t.lookup_slot(0, Port::West), std::nullopt);
  EXPECT_EQ(t.lookup_slot(8, Port::North), Port::South);
  EXPECT_EQ(t.valid_entries(), 2);
}

// Reference answers from the per-input columns alone (lookup_slot), so the
// table's per-slot output index is checked against the entries it mirrors.
std::optional<Port> brute_output_reserved_at(const SlotTable& t, Cycle cycle,
                                             Port out) {
  for (int j = 0; j < kNumPorts; ++j) {
    if (t.lookup(cycle, static_cast<Port>(j)) == out) return static_cast<Port>(j);
  }
  return std::nullopt;
}

bool brute_can_reserve(const SlotTable& t, int slot, int duration, Port in,
                       Port out) {
  for (int d = 0; d < duration; ++d) {
    const int s = (slot + d) & (t.active_size() - 1);
    if (t.lookup_slot(s, in)) return false;
    for (int j = 0; j < kNumPorts; ++j) {
      if (static_cast<Port>(j) != in && t.lookup_slot(s, static_cast<Port>(j)) == out)
        return false;
    }
  }
  return true;
}

int draw(Rng& rng, int n) {
  return static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n)));
}

void expect_matches_brute_force(const SlotTable& t, Rng& rng, int step) {
  for (int s = 0; s < t.active_size(); ++s) {
    const Cycle c = static_cast<Cycle>(s + t.active_size() * draw(rng, 4));
    for (int o = 0; o < kNumPorts; ++o) {
      const Port out = static_cast<Port>(o);
      ASSERT_EQ(t.output_reserved_at(c, out), brute_output_reserved_at(t, c, out))
          << "step " << step << " slot " << s << " out " << o;
    }
  }
  for (int k = 0; k < 16; ++k) {
    const int slot = draw(rng, t.active_size());
    const int dur = 1 + draw(rng, std::min(4, t.active_size()));
    const Port in = static_cast<Port>(draw(rng, kNumPorts));
    const Port out = static_cast<Port>(draw(rng, kNumPorts));
    ASSERT_EQ(t.can_reserve(slot, dur, in, out), brute_can_reserve(t, slot, dur, in, out))
        << "step " << step << " slot " << slot << " dur " << dur;
  }
}

TEST(SlotTable, OutputIndexMatchesBruteForceUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    SlotTable t(32, 8);
    t.set_expiry_tracking(seed % 2 == 0);
    // The walk starts from unallocated columns: the first operations of
    // every kind run against the empty-storage read path.
    ASSERT_EQ(t.storage_bytes(), 0u);
    expect_matches_brute_force(t, rng, -1);
    if (HasFatalFailure()) return;
    std::vector<PacketId> owners;  // setup ids ever used, for fenced releases
    PacketId next_owner = 1;
    Cycle now = 0;
    for (int step = 0; step < 400; ++step) {
      now += 1 + rng.uniform_int(200);
      const int slot = draw(rng, t.active_size());
      const int dur = 1 + draw(rng, std::min(4, t.active_size()));
      const Port in = static_cast<Port>(draw(rng, kNumPorts));
      const Port out = static_cast<Port>(draw(rng, kNumPorts));
      const int op = draw(rng, 100);
      if (op < 45) {
        if (t.reserve(slot, dur, in, out, next_owner, now)) owners.push_back(next_owner);
        ++next_owner;
      } else if (op < 70) {
        // Owner-fenced teardown, sometimes with a stale or foreign id.
        const PacketId owner =
            owners.empty() ? 0 : owners[rng.uniform_int(owners.size())];
        (void)t.release(slot, dur, in, owner);
      } else if (op < 78) {
        t.refresh(slot, dur, in, now);
      } else if (op < 86) {
        const Cycle age = std::min<Cycle>(now, rng.uniform_int(2000));
        (void)t.expire_older_than(now - age, [](int, Port) {});
      } else if (op < 89) {
        t.set_expiry_tracking(!rng.bernoulli(0.5));
      } else if (op < 91) {
        if (!t.grow()) t.set_active_size(8);
      } else if (op < 92) {
        t.set_active_size(8 << rng.uniform_int(3));
      } else {
        // Round trip through an archive, restored over the live table so a
        // stale index bit would survive into the checks below.
        StateWriter w;
        t.save_state(w);
        StateReader r(w.seal());
        t.restore_state(r);
        r.finish();
      }
      expect_matches_brute_force(t, rng, step);
      if (HasFatalFailure()) return;
    }
  }
}

// Columns are allocated on first write; until then every read answers
// "no reservation" without allocating.
TEST(SlotTableLazy, FreshTableAnswersReadsWithoutStorage) {
  SlotTable t(256, 256);
  EXPECT_EQ(t.storage_bytes(), 0u);
  for (int j = 0; j < kNumPorts; ++j) {
    const Port p = static_cast<Port>(j);
    for (int s = 0; s < t.active_size(); s += 17) {
      EXPECT_FALSE(t.lookup(static_cast<Cycle>(s + 1000), p));
      EXPECT_FALSE(t.lookup_slot(s, p));
      EXPECT_FALSE(t.owner_at(s, p));
      EXPECT_FALSE(t.output_reserved_at(static_cast<Cycle>(s), p));
      EXPECT_TRUE(t.input_free(s, 8, p));
      EXPECT_TRUE(t.can_reserve(s, 8, p, Port::East));
    }
    EXPECT_EQ(t.valid_entries(p), 0);
  }
  EXPECT_DOUBLE_EQ(t.occupancy(), 0.0);
  EXPECT_EQ(t.valid_entries(), 0);
  StateWriter w;
  t.save_state(w);
  EXPECT_EQ(t.expire_older_than(kCycleNever, [](int, Port) {}), 0);
  t.set_expiry_tracking(false);
  t.set_expiry_tracking(true);
  t.set_active_size(64);  // a reset of unallocated columns
  EXPECT_EQ(t.storage_bytes(), 0u);
}

TEST(SlotTableLazy, ReleaseAndRefreshOnFreshTableAllocateNothing) {
  SlotTable t(64, 64);
  EXPECT_FALSE(t.release(0, 8, Port::West));
  EXPECT_FALSE(t.release(60, 8, Port::North, /*owner=*/3));
  t.refresh(0, 8, Port::West, 500);
  t.refresh(32, 4, Port::Local, 900);
  EXPECT_EQ(t.storage_bytes(), 0u);
  EXPECT_EQ(t.valid_entries(), 0);
}

TEST(SlotTableLazy, EmptyRoundTripStaysUnallocated) {
  SlotTable src(64, 16);
  StateWriter w;
  src.save_state(w);
  SlotTable dst(64, 64);
  StateReader r(w.seal());
  dst.restore_state(r);
  r.finish();
  EXPECT_EQ(dst.active_size(), 16);
  EXPECT_EQ(dst.storage_bytes(), 0u);
  EXPECT_EQ(dst.valid_entries(), 0);
}

// The first write allocates only the written port's column (plus the
// per-slot output mask); restore allocates exactly the ports it fills.
TEST(SlotTableLazy, WritesAllocateOnlyTheirColumn) {
  SlotTable t(64, 64);
  ASSERT_TRUE(t.reserve(3, 2, Port::West, Port::East, 9, 100));
  const std::size_t one_column = t.storage_bytes();
  EXPECT_GT(one_column, 0u);
  EXPECT_EQ(t.lookup_slot(4, Port::West), Port::East);
  EXPECT_FALSE(t.lookup_slot(4, Port::North));
  EXPECT_FALSE(t.can_reserve(4, 1, Port::North, Port::East));  // output held
  EXPECT_TRUE(t.can_reserve(4, 1, Port::North, Port::South));
  EXPECT_EQ(t.output_reserved_at(3, Port::East), Port::West);
  EXPECT_EQ(t.storage_bytes(), one_column);  // reads allocate nothing

  ASSERT_TRUE(t.reserve(10, 1, Port::North, Port::South));
  const std::size_t two_columns = t.storage_bytes();
  EXPECT_GT(two_columns, one_column);

  StateWriter w;
  t.save_state(w);
  SlotTable restored(64, 64);
  StateReader r(w.seal());
  restored.restore_state(r);
  r.finish();
  EXPECT_EQ(restored.storage_bytes(), two_columns);
  EXPECT_EQ(restored.owner_at(3, Port::West), PacketId{9});
  EXPECT_EQ(restored.lookup_slot(10, Port::North), Port::South);
}

TEST(SlotTable, RestoreRejectsTwoInputsOnOneOutput) {
  // can_reserve never lets this happen, so such an archive is malformed:
  // restore must report it as a StateError, not abort.
  StateWriter w;
  w.section("slot_table");
  w.i32(8);     // capacity
  w.i32(8);     // active
  w.b(false);   // expiry tracking
  for (int j = 0; j < kNumPorts; ++j) {
    const Port in = static_cast<Port>(j);
    const bool holds = in == Port::West || in == Port::North;
    w.i32(holds ? 1 : 0);
    if (!holds) continue;
    w.i32(3);                                     // slot
    w.u8(static_cast<std::uint8_t>(Port::East));  // both claim East
    w.u64(static_cast<std::uint64_t>(j));         // owner
    w.u64(0);                                     // stamp
  }
  SlotTable t(8, 8);
  StateReader r(w.seal());
  EXPECT_THROW(t.restore_state(r), StateError);
}

TEST(SlotTableDeathTest, DurationBeyondActiveSizeRejected) {
  SlotTable t(8, 8);
  EXPECT_DEATH((void)t.can_reserve(0, 9, Port::West, Port::East), "HN_CHECK");
}

}  // namespace
}  // namespace hybridnoc
