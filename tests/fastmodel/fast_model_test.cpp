// Unit tests for the transfer-level fast model: zero-load timing against
// the analytic pipeline formula, bit-determinism per seed, saturation
// detection, engine dispatch via RunParams::fidelity, and the supported-
// configuration gate, exact golden fingerprints of eight runs, the trace and
// mesh-size input checks, a memory guard at 128x128 and the largest
// accepted mesh (256x256). Cross-fidelity accuracy against the cycle core
// lives in accuracy_test.cpp (ctest -L accuracy).
#include "fastmodel/fast_model.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include "common/assert.hpp"
#include "common/pool.hpp"
#include "sim/driver.hpp"
#include "workloads/workload.hpp"

namespace hybridnoc {
namespace {

RunParams base_params(TrafficPattern pattern, double rate) {
  RunParams p;
  p.pattern = pattern;
  p.injection_rate = rate;
  p.seed = 11;
  p.fidelity = Fidelity::Fast;
  return p;
}

TEST(FastModel, ZeroLoadFormulaMatchesCyclePipeline) {
  // 5 cycles per hop (3 router pipeline + 2 link), 2 injection + 5
  // destination/ejection overhead cycles minus the head's counted hop, and
  // the tail trails flits-1 cycles: 5h + 6 + F.
  EXPECT_DOUBLE_EQ(fast_zero_load_ps_latency(1, 5), 16.0);
  EXPECT_DOUBLE_EQ(fast_zero_load_ps_latency(2, 5), 21.0);
  EXPECT_DOUBLE_EQ(fast_zero_load_ps_latency(14, 1), 77.0);
}

TEST(FastModel, NearZeroLoadLatencyMatchesAnalyticMean) {
  // At a vanishing injection rate queueing is negligible, so the measured
  // mean must sit on the zero-load formula averaged over the uniform pair
  // distribution (self-pairs excluded, like the generator).
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(4);
  const Mesh mesh(cfg.k);
  double expect_sum = 0.0;
  int pairs = 0;
  for (NodeId s = 0; s < mesh.num_nodes(); ++s) {
    for (NodeId d = 0; d < mesh.num_nodes(); ++d) {
      if (s == d) continue;
      const Coord a = mesh.coord(s);
      const Coord b = mesh.coord(d);
      const int hops = std::abs(a.x - b.x) + std::abs(a.y - b.y);
      expect_sum += fast_zero_load_ps_latency(hops, cfg.ps_data_flits);
      ++pairs;
    }
  }
  const double expected = expect_sum / pairs;

  RunParams p = base_params(TrafficPattern::UniformRandom, 0.002);
  p.warmup_packets = 200;  // packets are sparse: keep the run short
  p.measure_packets = 2000;
  p.max_cycles = 30'000'000;
  const RunResult r = run_synthetic_fast(cfg, p);
  EXPECT_FALSE(r.saturated);
  EXPECT_NEAR(r.avg_latency, expected, expected * 0.02);
}

TEST(FastModel, DeterministicForSeedAcrossPatterns) {
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(6);
  for (TrafficPattern pat : {TrafficPattern::UniformRandom,
                             TrafficPattern::Hotspot, TrafficPattern::Tornado}) {
    RunParams p = base_params(pat, 0.15);
    p.measure_packets = 5000;
    const RunResult a = run_synthetic_fast(cfg, p);
    const RunResult b = run_synthetic_fast(cfg, p);
    EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
    EXPECT_DOUBLE_EQ(a.p99_latency, b.p99_latency);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.measured_packets, b.measured_packets);
    EXPECT_DOUBLE_EQ(a.total_energy_pj(), b.total_energy_pj());

    p.seed = 12;
    const RunResult c = run_synthetic_fast(cfg, p);
    EXPECT_NE(a.avg_latency, c.avg_latency);
  }
}

TEST(FastModel, DetectsSaturationAtOverload) {
  // 0.95 flits/node/cycle of uniform traffic is far beyond an 8x8 mesh's
  // bisection capacity; the run must flag saturation instead of reporting a
  // meaningless equilibrium latency.
  RunParams p = base_params(TrafficPattern::UniformRandom, 0.95);
  p.measure_packets = 20000;
  const RunResult r = run_synthetic_fast(NocConfig::hybrid_tdm_vc4(8), p);
  EXPECT_TRUE(r.saturated);
}

TEST(FastModel, DriverDispatchesOnFidelity) {
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(4);
  RunParams p = base_params(TrafficPattern::UniformRandom, 0.1);
  p.measure_packets = 3000;
  const RunResult direct = run_synthetic_fast(cfg, p);
  const RunResult via_driver = run_synthetic(cfg, p);
  EXPECT_DOUBLE_EQ(direct.avg_latency, via_driver.avg_latency);
  EXPECT_EQ(direct.cycles, via_driver.cycles);
}

TEST(FastModel, ReportsCircuitSwitchedFlits) {
  // Hotspot traffic at a mid rate repeatedly exercises the same pairs, so
  // the TDM layer must establish circuits and the CS flit fraction must
  // show up on the stats surface, like the cycle core's.
  RunParams p = base_params(TrafficPattern::Hotspot, 0.2);
  p.measure_packets = 10000;
  const RunResult r = run_synthetic_fast(NocConfig::hybrid_tdm_vc4(8), p);
  EXPECT_GT(r.cs_flit_fraction, 0.0);
  EXPECT_LE(r.cs_flit_fraction, 1.0);
}

TEST(FastModel, SupportGateNamesUnsupportedFeatures) {
  std::string why;
  EXPECT_TRUE(fast_model_supports(NocConfig::hybrid_tdm_vc4(4), &why));

  NocConfig sharing = NocConfig::hybrid_tdm_vc4(4);
  sharing.hitchhiker_sharing = true;
  EXPECT_FALSE(fast_model_supports(sharing, &why));
  EXPECT_NE(why.find("sharing"), std::string::npos);

  NocConfig faults = NocConfig::hybrid_tdm_vc4(4);
  faults.link_ber = 1e-9;
  EXPECT_FALSE(fast_model_supports(faults, &why));
  EXPECT_NE(why.find("fault"), std::string::npos);

  EXPECT_DEATH((void)run_synthetic_fast(sharing, base_params(
                   TrafficPattern::UniformRandom, 0.1)),
               "sharing");
}

// --- golden fingerprints ---------------------------------------------------
//
// Eight runs pinned field by field, exactly: every RunResult field and all 16
// energy counters. Self-determinism and the accuracy bands would both miss a
// change that shifts a single link claim, slot reservation or rng draw;
// these would not. A deliberate change to the model's behaviour re-records
// the literals (print each field with %.17g).

#define HN_EXPECT_FIELD(field) EXPECT_EQ(got.field, want.field) << #field

void expect_fingerprint(const RunResult& got, const RunResult& want) {
  HN_EXPECT_FIELD(offered_rate);
  HN_EXPECT_FIELD(accepted_rate);
  HN_EXPECT_FIELD(avg_latency);
  HN_EXPECT_FIELD(p99_latency);
  HN_EXPECT_FIELD(saturated);
  HN_EXPECT_FIELD(measured_packets);
  HN_EXPECT_FIELD(cycles);
  HN_EXPECT_FIELD(energy.buffer_writes);
  HN_EXPECT_FIELD(energy.buffer_reads);
  HN_EXPECT_FIELD(energy.xbar_flits);
  HN_EXPECT_FIELD(energy.vc_arbs);
  HN_EXPECT_FIELD(energy.sw_arbs);
  HN_EXPECT_FIELD(energy.link_flits);
  HN_EXPECT_FIELD(energy.slot_table_reads);
  HN_EXPECT_FIELD(energy.slot_table_writes);
  HN_EXPECT_FIELD(energy.dlt_accesses);
  HN_EXPECT_FIELD(energy.cs_latch_flits);
  HN_EXPECT_FIELD(energy.cycles);
  HN_EXPECT_FIELD(energy.vc_active_cycles);
  HN_EXPECT_FIELD(energy.slot_entry_active_cycles);
  HN_EXPECT_FIELD(energy.dlt_active_cycles);
  HN_EXPECT_FIELD(energy.cs_misc_active_cycles);
  HN_EXPECT_FIELD(energy.link_active_cycles);
  HN_EXPECT_FIELD(cs_flit_fraction);
  HN_EXPECT_FIELD(config_flit_fraction);
}

#undef HN_EXPECT_FIELD

RunParams golden_params(TrafficPattern pattern, double rate) {
  RunParams p = base_params(pattern, rate);
  p.seed = 7;
  p.measure_packets = 300000;
  return p;
}

TEST(FastModelGolden, HybridTdmUniformWithSetupFailuresAndTeardowns) {
  // 0.33 on 8x8 is below saturation but hot enough that setups collide
  // (failed prefixes unwound, retries with a new slot) and idle circuits
  // are torn down at epoch boundaries inside the window.
  const RunResult r =
      run_synthetic_fast(NocConfig::hybrid_tdm_vc4(8),
                         golden_params(TrafficPattern::UniformRandom, 0.33));
  EXPECT_GT(r.cs_flit_fraction, 0.0);
  EXPECT_GT(r.config_flit_fraction, 0.0);
  const RunResult golden{
      .offered_rate = 0.33000000000000002,
      .accepted_rate = 0.32473261500020767,
      .avg_latency = 63.854758119085474,
      .p99_latency = 174.84848771266513,
      .saturated = false,
      .measured_packets = 300003,
      .cycles = 72239,
      .energy = {.buffer_writes = 9505162,
                 .buffer_reads = 9505162,
                 .xbar_flits = 9517378,
                 .vc_arbs = 1904306,
                 .sw_arbs = 9505162,
                 .link_flits = 8015816,
                 .slot_table_reads = 4623296,
                 .slot_table_writes = 10428,
                 .dlt_accesses = 0,
                 .cs_latch_flits = 12216,
                 .cycles = 4623296,
                 .vc_active_cycles = 92465920,
                 .slot_entry_active_cycles = 1183563776,
                 .dlt_active_cycles = 0,
                 .cs_misc_active_cycles = 4623296,
                 .link_active_cycles = 16181536},
      .cs_flit_fraction = 0.0010340586401862372,
      .config_flit_fraction = 0.00045286175329423627};
  expect_fingerprint(r, golden);
}

TEST(FastModelGolden, HybridTdmUniformWithoutTimeSlotStealing) {
  // The only run that reserves and releases link capacity for
  // packet-switched traffic (reserved slots are lost to it when idle).
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(8);
  cfg.time_slot_stealing = false;
  const RunResult r = run_synthetic_fast(
      cfg, golden_params(TrafficPattern::UniformRandom, 0.33));
  const RunResult golden{
      .offered_rate = 0.33000000000000002,
      .accepted_rate = 0.32453070314985683,
      .avg_latency = 124.55691333333333,
      .p99_latency = 493.375,
      .saturated = false,
      .measured_packets = 300000,
      .cycles = 72289,
      .energy = {.buffer_writes = 9511670,
                 .buffer_reads = 9511670,
                 .xbar_flits = 9524122,
                 .vc_arbs = 1905602,
                 .sw_arbs = 9511670,
                 .link_flits = 8021508,
                 .slot_table_reads = 4626496,
                 .slot_table_writes = 10400,
                 .dlt_accesses = 0,
                 .cs_latch_flits = 12452,
                 .cycles = 4626496,
                 .vc_active_cycles = 92529920,
                 .slot_entry_active_cycles = 1184382976,
                 .dlt_active_cycles = 0,
                 .cs_misc_active_cycles = 4626496,
                 .link_active_cycles = 16192736},
      .cs_flit_fraction = 0.0010519762839270674,
      .config_flit_fraction = 0.0004518791918616491};
  expect_fingerprint(r, golden);
}

TEST(FastModelGolden, HybridTdmTornado) {
  const RunResult r =
      run_synthetic_fast(NocConfig::hybrid_tdm_vc4(8),
                         golden_params(TrafficPattern::Tornado, 0.2));
  const RunResult golden{
      .offered_rate = 0.20000000000000001,
      .accepted_rate = 0.19994216664534561,
      .avg_latency = 38.073255689924132,
      .p99_latency = 77.74877344877352,
      .saturated = false,
      .measured_packets = 300004,
      .cycles = 117255,
      .energy = {.buffer_writes = 6703220,
                 .buffer_reads = 6703220,
                 .xbar_flits = 7041516,
                 .vc_arbs = 1340644,
                 .sw_arbs = 6703220,
                 .link_flits = 5558491,
                 .slot_table_reads = 7504320,
                 .slot_table_writes = 0,
                 .dlt_accesses = 0,
                 .cs_latch_flits = 338296,
                 .cycles = 7504320,
                 .vc_active_cycles = 150086400,
                 .slot_entry_active_cycles = 1921105920,
                 .dlt_active_cycles = 0,
                 .cs_misc_active_cycles = 7504320,
                 .link_active_cycles = 26265120},
      .cs_flit_fraction = 0.047052477200316918,
      .config_flit_fraction = 0};
  expect_fingerprint(r, golden);
}

TEST(FastModelGolden, HybridTdmCoherenceTrace) {
  WorkloadOptions wo;
  wo.k = 8;
  wo.seed = 1;
  const WorkloadTrace wt = build_workload("coherence", wo);
  RunParams p;
  p.seed = 7;
  p.measure_packets = 6000;
  const RunResult r =
      run_trace_fast(NocConfig::hybrid_tdm_vc4(8), wt.entries, p);
  const RunResult golden{
      .offered_rate = 0.10000000000000001,
      .accepted_rate = 0.092232818411097095,
      .avg_latency = 37.9465089151808,
      .p99_latency = 84.345652173912981,
      .saturated = false,
      .measured_packets = 6001,
      .cycles = 2379,
      .energy = {.buffer_writes = 86973,
                 .buffer_reads = 86973,
                 .xbar_flits = 89041,
                 .vc_arbs = 38337,
                 .sw_arbs = 86973,
                 .link_flits = 75056,
                 .slot_table_reads = 152256,
                 .slot_table_writes = 236,
                 .dlt_accesses = 0,
                 .cs_latch_flits = 2068,
                 .cycles = 152256,
                 .vc_active_cycles = 3045120,
                 .slot_entry_active_cycles = 38977536,
                 .dlt_active_cycles = 0,
                 .cs_misc_active_cycles = 152256,
                 .link_active_cycles = 532896},
      .cs_flit_fraction = 0.019473081328751432,
      .config_flit_fraction = 0.0012155881301394351};
  expect_fingerprint(r, golden);
}

TEST(FastModelGolden, HybridTdmHotspot32x32) {
  // The goldens above touch at most ~4k source-destination pairs; this one
  // touches ~49k, so the per-pair records are created, found and moved at
  // scale. Hotspot traffic at the default frequency threshold (6 packets a
  // pair per epoch) sets up almost no circuits on 1024 nodes; a threshold
  // of 2 makes setups, failed setups with their cooldowns, and idle
  // teardowns common while the run stays below saturation.
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(32);
  cfg.path_freq_threshold = 2;
  RunParams p = golden_params(TrafficPattern::Hotspot, 0.01);
  p.measure_packets = 50000;
  const RunResult r = run_synthetic_fast(cfg, p);
  EXPECT_GT(r.cs_flit_fraction, 0.0);
  const RunResult golden{
      .offered_rate = 0.01,
      .accepted_rate = 0.0099298442673005499,
      .avg_latency = 208.71118577628448,
      .p99_latency = 780.17068965517205,
      .saturated = false,
      .measured_packets = 50001,
      .cycles = 24768,
      .energy = {.buffer_writes = 5408845,
                 .buffer_reads = 5408845,
                 .xbar_flits = 5418813,
                 .vc_arbs = 1195009,
                 .sw_arbs = 5408845,
                 .link_flits = 5155815,
                 .slot_table_reads = 25362432,
                 .slot_table_writes = 348620,
                 .dlt_accesses = 0,
                 .cs_latch_flits = 9968,
                 .cycles = 25362432,
                 .vc_active_cycles = 507248640,
                 .slot_entry_active_cycles = 6492782592,
                 .dlt_active_cycles = 0,
                 .cs_misc_active_cycles = 25362432,
                 .link_active_cycles = 98279424},
      .cs_flit_fraction = 0.002081231580703329,
      .config_flit_fraction = 0.042677130624567489};
  expect_fingerprint(r, golden);
}

TEST(FastModelGolden, PacketVc4Uniform12x12) {
  // A packet-switched run on a mesh whose node count is not a power of two:
  // no policy state at all, and uniform draws that take the rejection path
  // of draw_uniform_node.
  RunParams p = golden_params(TrafficPattern::UniformRandom, 0.2);
  p.measure_packets = 100000;
  const RunResult r = run_synthetic_fast(NocConfig::packet_vc4(12), p);
  const RunResult golden{
      .offered_rate = 0.20000000000000001,
      .accepted_rate = 0.19749886698391117,
      .avg_latency = 68.273150000000001,
      .p99_latency = 155.95864661654136,
      .saturated = false,
      .measured_packets = 100000,
      .cycles = 17652,
      .energy = {.buffer_writes = 4516385,
                 .buffer_reads = 4516385,
                 .xbar_flits = 4516385,
                 .vc_arbs = 903277,
                 .sw_arbs = 4516385,
                 .link_flits = 4014495,
                 .slot_table_reads = 0,
                 .slot_table_writes = 0,
                 .dlt_accesses = 0,
                 .cs_latch_flits = 0,
                 .cycles = 2541888,
                 .vc_active_cycles = 50837760,
                 .slot_entry_active_cycles = 0,
                 .dlt_active_cycles = 0,
                 .cs_misc_active_cycles = 0,
                 .link_active_cycles = 9320256},
      .cs_flit_fraction = 0,
      .config_flit_fraction = 0};
  expect_fingerprint(r, golden);
}

TEST(FastModelGolden, HybridTdmBitComplementWithoutStealing12x12) {
  // Bit-complement sends half the nodes west and north, so routes turn in
  // all four directions on a 12x12 mesh. Without time-slot stealing every
  // circuit reserves and releases link capacity along its route; a
  // frequency threshold of 2 makes setups, failed prefixes and teardowns
  // common while the run stays below saturation.
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(12);
  cfg.time_slot_stealing = false;
  cfg.path_freq_threshold = 2;
  RunParams p = golden_params(TrafficPattern::BitComplement, 0.04);
  p.measure_packets = 100000;
  const RunResult r = run_synthetic_fast(cfg, p);
  EXPECT_GT(r.cs_flit_fraction, 0.0);
  EXPECT_GT(r.config_flit_fraction, 0.0);
  const RunResult golden{
      .offered_rate = 0.040000000000000001,
      .accepted_rate = 0.040235072431585299,
      .avg_latency = 81.969170000000005,
      .p99_latency = 296.22807017543857,
      .saturated = false,
      .measured_packets = 100000,
      .cycles = 87063,
      .energy = {.buffer_writes = 3949186,
                 .buffer_reads = 3949186,
                 .xbar_flits = 5997018,
                 .vc_arbs = 791082,
                 .sw_arbs = 3949186,
                 .link_flits = 5532458,
                 .slot_table_reads = 12537072,
                 .slot_table_writes = 3236,
                 .dlt_accesses = 0,
                 .cs_latch_flits = 2047832,
                 .cycles = 12537072,
                 .vc_active_cycles = 250741440,
                 .slot_entry_active_cycles = 3209490432,
                 .dlt_active_cycles = 0,
                 .cs_misc_active_cycles = 12537072,
                 .link_active_cycles = 45969264},
      .cs_flit_fraction = 0.31052674645454975,
      .config_flit_fraction = 0.00034871706561047014};
  expect_fingerprint(r, golden);
}

TEST(FastModelGolden, HybridTdmOverloadBeyondRingHorizon) {
  // 2 flits/node/cycle is twice what an NI can serialize, so source
  // backlogs grow by a cycle per cycle until admission drops packets at
  // 2000 queued. Heads then launch thousands of cycles ahead, beyond the
  // 4096-cycle ring of the event calendars, and go through their overflow
  // heaps; this pins the tie order between ring and overflow events.
  RunParams p = golden_params(TrafficPattern::UniformRandom, 2.0);
  p.measure_packets = 20000;
  const RunResult r = run_synthetic_fast(NocConfig::hybrid_tdm_vc4(6), p);
  EXPECT_TRUE(r.saturated);
  const RunResult golden{
      .offered_rate = 2,
      .accepted_rate = 0.19261538131134162,
      .avg_latency = 500.24916545946968,
      .p99_latency = 15471,
      .saturated = true,
      .measured_packets = 15877,
      .cycles = 15521,
      .energy = {.buffer_writes = 3080448,
                 .buffer_reads = 3080448,
                 .xbar_flits = 3357908,
                 .vc_arbs = 649108,
                 .sw_arbs = 3080448,
                 .link_flits = 2680792,
                 .slot_table_reads = 558756,
                 .slot_table_writes = 68388,
                 .dlt_accesses = 0,
                 .cs_latch_flits = 277460,
                 .cycles = 558756,
                 .vc_active_cycles = 11175120,
                 .slot_entry_active_cycles = 71520768,
                 .dlt_active_cycles = 0,
                 .cs_misc_active_cycles = 558756,
                 .link_active_cycles = 1862520},
      .cs_flit_fraction = 0.095554775620854918,
      .config_flit_fraction = 0.023765499559898155};
  expect_fingerprint(r, golden);
}

// --- trace input checks ------------------------------------------------------

TEST(FastModel, MalformedTracesAreRejectedAtBothFidelities) {
  // Both fidelities, and the fast model's own entry point, refuse the same
  // traces before simulating anything (a 4x4 mesh has nodes 0..15).
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(4);
  const std::vector<std::vector<TraceEntry>> bad = {
      {},                                                // empty
      {TraceEntry{0, 0, 16, 5}},                         // dst == k*k
      {TraceEntry{0, 0, 99, 5}},                         // dst far outside
      {TraceEntry{0, -1, 3, 5}},                         // negative src
      {TraceEntry{0, 16, 3, 5}},                         // src == k*k
      {TraceEntry{0, 1, 2, 5}, TraceEntry{4, 3, 3, 5}},  // self-directed
      {TraceEntry{5, 1, 2, 5}, TraceEntry{4, 2, 1, 5}},  // out of order
      {TraceEntry{0, 1, 2, 0}},                          // no flits
      {TraceEntry{0, 1, 2, 5}, TraceEntry{3, 2, 1, -4}}, // negative flits
  };
  ScopedCheckThrows guard;
  for (size_t i = 0; i < bad.size(); ++i) {
    for (Fidelity f : {Fidelity::Cycle, Fidelity::Fast}) {
      RunParams p;
      p.fidelity = f;
      EXPECT_THROW((void)run_trace(cfg, bad[i], p), CheckFailure)
          << "entry set " << i << " at " << fidelity_name(f) << " fidelity";
    }
    EXPECT_THROW((void)run_trace_fast(cfg, bad[i], RunParams{}), CheckFailure)
        << "entry set " << i << " via run_trace_fast";
  }
  // The fast model packs packet lengths into 16 bits and node ids into 16
  // bits: a longer message or a mesh beyond 256x256 is refused rather than
  // silently wrapped.
  const std::vector<TraceEntry> too_long = {TraceEntry{0, 1, 2, 65536}};
  RunParams fast;
  fast.fidelity = Fidelity::Fast;
  EXPECT_THROW((void)run_trace(cfg, too_long, fast), CheckFailure);
  EXPECT_THROW((void)run_trace_fast(cfg, too_long, RunParams{}), CheckFailure);
  EXPECT_THROW((void)run_synthetic_fast(
                   NocConfig::hybrid_tdm_vc4(257),
                   base_params(TrafficPattern::UniformRandom, 0.1)),
               CheckFailure);
}

// --- scale -------------------------------------------------------------------

TEST(FastModel, Mesh128RunsTwinIdenticalInBoundedMemory) {
  // Per-pair state is created on first use, so a short 128x128 run stays
  // far below the ~7.5 GB that n²-sized per-pair arrays would take at this
  // size (16384 nodes, 2^28 pairs).
  RunParams p = base_params(TrafficPattern::UniformRandom, 0.02);
  p.warmup_packets = 2000;
  p.warmup_min_cycles = 500;
  p.measure_packets = 20000;
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(128);
  const RunResult a = run_synthetic_fast(cfg, p);
  const RunResult b = run_synthetic_fast(cfg, p);
  expect_fingerprint(a, b);
  EXPECT_FALSE(a.saturated);
  EXPECT_GE(a.measured_packets, p.measure_packets);
  // The process's peak, so the bound holds for this test run on its own
  // (as ctest runs it): a 128x128 run keeps ~20 MiB live. Sanitizer builds
  // (HN_POOL_DISABLED) add their runtime's shadow memory and keep a 1 GiB
  // bound.
  rusage ru{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &ru), 0);
  const long max_kib = HN_POOL_DISABLED ? 1L << 20 : 64L << 10;
  EXPECT_LT(ru.ru_maxrss, max_kib) << "peak RSS in KiB";
}

TEST(FastModel, Mesh256RoutesReachTheLastRowAndColumn) {
  // k = 256 is the largest mesh the model accepts: node ids fill all 16
  // bits of a HopEvent's destination and coordinates reach 255, the longest
  // y-leg a route position holds. Zero-load latency at this size exceeds
  // the default latency cap, so the cap is lifted. The fingerprint was
  // recorded when every route was unrolled link by link from route_xy, so
  // a walk that turns at the wrong link or wraps a leg length moves the
  // link clocks and with them the latencies.
  RunParams p = base_params(TrafficPattern::UniformRandom, 0.001);
  p.warmup_packets = 200;
  p.warmup_min_cycles = 100;
  p.measure_packets = 60000;
  p.latency_cap = 1e9;
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(256);
  const RunResult r = run_synthetic_fast(cfg, p);
  expect_fingerprint(r, run_synthetic_fast(cfg, p));
  const RunResult golden{
      .offered_rate = 0.001,
      .accepted_rate = 0.00090467633736056807,
      .avg_latency = 824.48707521541303,
      .p99_latency = 1887.6633333333327,
      .saturated = false,
      .measured_packets = 60001,
      .cycles = 5435,
      .energy = {.buffer_writes = 61181505,
                 .buffer_reads = 61181505,
                 .xbar_flits = 61181505,
                 .vc_arbs = 12236301,
                 .sw_arbs = 61181505,
                 .link_flits = 60824850,
                 .slot_table_reads = 356188160,
                 .slot_table_writes = 0,
                 .dlt_accesses = 0,
                 .cs_latch_flits = 0,
                 .cycles = 356188160,
                 .vc_active_cycles = 7123763200,
                 .slot_entry_active_cycles = 91184168960,
                 .dlt_active_cycles = 0,
                 .cs_misc_active_cycles = 356188160,
                 .link_active_cycles = 1419187200},
      .cs_flit_fraction = 0,
      .config_flit_fraction = 0};
  expect_fingerprint(r, golden);
}

}  // namespace
}  // namespace hybridnoc
