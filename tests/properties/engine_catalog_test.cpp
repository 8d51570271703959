// The tick engine's scenario catalog. Each scenario is a seeded stimulus —
// traffic, slot-table resizes, config-plane and data-plane faults — replayed
// through the cycle core. A run's fingerprint holds everything it exposes:
// every delivered packet's id and delivery cycle, every EnergyCounters field
// (including the closed-form idle integrals folded in for sleeping
// components and fast-forwarded cycles), flit-class totals, degradation
// counters and, for hybrid networks, slot-table state, circuit statistics
// and config-fault accounting. Two checks pin every scenario:
//  * golden: the fnv1a64 digest of the serial run's fingerprint equals a
//    value recorded while a second engine that ticked every component every
//    cycle still existed and gave the same digest on every scenario here. A
//    missed wake, a reordered dispatch or a mis-folded integral changes it.
//    A change that alters results on purpose takes the new value from the
//    failure message, which prints the serial digest.
//  * thread cross: the sharded parallel engine at every thread count
//    NocConfig::validate accepts agrees with the serial run field by field.
// Scenarios keep the test names the two per-engine suites gave them:
// SchedulerEquivalence.* and Fixtures/FixtureEquivalence.* run the golden
// check; ThreadEquivalence.* and Fixtures/ThreadFixtureEquivalence.* add
// the thread cross and keep "Thread" in their names, so `ctest -R Thread`
// selects them for the tsan build. The quiescence checks prove fast_forward
// never jumps over a resize poll, a lease sweep or an idle-energy integral.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fileio.hpp"
#include "common/pool.hpp"
#include "noc/network.hpp"
#include "tdm/fault_trace.hpp"
#include "tdm/hybrid_network.hpp"
#include "traffic/synthetic.hpp"
#include "workloads/coherence.hpp"
#include "workloads/nn_dataflow.hpp"

namespace hybridnoc {
namespace {

/// Highest thread count of the cross: every core we can get, floored at 3
/// so the shard count always exceeds 2 even on small CI boxes (an odd count
/// also exercises uneven node ranges on the 4x4 mesh).
int max_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 3u, 8u));
}

/// Thread counts of the cross besides the serial run's 1.
std::vector<int> parallel_thread_counts() { return {2, max_threads()}; }

/// Everything one run exposes, as named integers so the comparison, the
/// digest and the non-vacuity checks all walk one list.
struct RunFingerprint {
  std::map<std::string, std::uint64_t> fields;
  /// Packet id -> delivery cycle. Injection schedules are identical across
  /// runs of one scenario, so equal delivery cycles mean equal latencies.
  std::map<PacketId, Cycle> deliveries;

  std::uint64_t operator[](const std::string& name) const {
    return fields.at(name);
  }
};

void expect_same(const RunFingerprint& a, const RunFingerprint& b) {
  ASSERT_EQ(a.fields.size(), b.fields.size());
  for (const auto& [name, value] : a.fields) {
    EXPECT_EQ(value, b[name]) << name;
  }
  EXPECT_EQ(a.deliveries, b.deliveries);
}

/// Field values in name order, then (id, cycle) per delivery. Every value
/// is an integer, so the digest does not depend on floating point.
std::uint64_t digest(const RunFingerprint& fp) {
  std::vector<std::uint64_t> words;
  for (const auto& [name, value] : fp.fields) words.push_back(value);
  for (const auto& [id, at] : fp.deliveries) {
    words.push_back(id);
    words.push_back(at);
  }
  return fnv1a64(words.data(), words.size() * sizeof(std::uint64_t));
}

void harvest(Network& net, RunFingerprint& fp) {
  const EnergyCounters e = net.total_energy();
  const DegradationReport d = net.degradation_report();
  auto& f = fp.fields;
  f["end_cycle"] = net.now();
  f["energy.buffer_writes"] = e.buffer_writes;
  f["energy.buffer_reads"] = e.buffer_reads;
  f["energy.xbar_flits"] = e.xbar_flits;
  f["energy.vc_arbs"] = e.vc_arbs;
  f["energy.sw_arbs"] = e.sw_arbs;
  f["energy.link_flits"] = e.link_flits;
  f["energy.slot_table_reads"] = e.slot_table_reads;
  f["energy.slot_table_writes"] = e.slot_table_writes;
  f["energy.dlt_accesses"] = e.dlt_accesses;
  f["energy.cs_latch_flits"] = e.cs_latch_flits;
  f["energy.cycles"] = e.cycles;
  f["energy.vc_active_cycles"] = e.vc_active_cycles;
  f["energy.slot_entry_active_cycles"] = e.slot_entry_active_cycles;
  f["energy.dlt_active_cycles"] = e.dlt_active_cycles;
  f["energy.cs_misc_active_cycles"] = e.cs_misc_active_cycles;
  f["energy.link_active_cycles"] = e.link_active_cycles;
  f["ps_flits"] = net.total_ps_flits();
  f["cs_flits"] = net.total_cs_flits();
  f["config_flits"] = net.total_config_flits();
  f["retransmits"] = d.retransmits;
  f["retx_give_ups"] = d.retx_give_ups;
  f["crc_flagged"] = d.crc_flagged_flits;
  f["crc_squashed"] = d.crc_squashed_packets;
  f["e2e_acks"] = d.e2e_acks_sent;
  f["e2e_dup_dropped"] = d.e2e_duplicates_dropped;
  f["corrupted_traversals"] = d.corrupted_traversals;
  f["failed_links"] = static_cast<std::uint64_t>(d.failed_links);
  auto* h = dynamic_cast<HybridNetwork*>(&net);
  if (!h) return;
  f["slot_digest"] = h->slot_state_digest();
  f["valid_slot_entries"] =
      static_cast<std::uint64_t>(h->total_valid_slot_entries());
  f["cs_packets"] = h->total_cs_packets();
  f["setups_sent"] = h->total_setups_sent();
  f["setup_failures"] = h->total_setup_failures();
  f["expired_reservations"] = h->total_expired_reservations();
  f["stale_config_drops"] = h->total_stale_config_drops();
  f["cs_fault_teardowns"] = h->total_cs_fault_teardowns();
  f["faults_dropped"] = h->faults_dropped();
  f["faults_delayed"] = h->faults_delayed();
  f["faults_duplicated"] = h->faults_duplicated();
  f["resizes"] = static_cast<std::uint64_t>(h->controller().resizes());
  f["generation"] = h->controller().table_generation();
  f["active_slots"] =
      static_cast<std::uint64_t>(h->controller().active_slots());
}

/// One scenario's input: everything except the thread count. Every
/// scenario runs through run() below.
struct Stimulus {
  NocConfig cfg = {};
  /// Injected in order (ids 1, 2, ...) at the start of each entry's cycle;
  /// as in run_trace, packets shorter than a circuit payload stay
  /// packet-switched.
  std::vector<TraceEntry> traffic = {};
  /// Traffic, resizes and config faults run in [0, stimulus_cycles); quiet
  /// ticks follow so timeouts fire and components go to sleep.
  Cycle stimulus_cycles = 0;
  Cycle cooldown_cycles = 0;
  std::vector<Cycle> resizes = {};
  /// Seeded config-plane faults, switched off when the stimulus ends.
  std::optional<ConfigFaultParams> config_faults = {};
  /// Schedules hardware faults (or a fault replay) before cycle 0.
  std::function<void(Network&)> arm = {};
};

RunFingerprint run(const Stimulus& s, int threads,
                   TickProfile* profile = nullptr) {
  NocConfig cfg = s.cfg;
  cfg.tick_threads = threads;
  const std::unique_ptr<Network> net =
      cfg.arch == RouterArch::PacketSwitched
          ? std::make_unique<Network>(cfg)
          : std::make_unique<HybridNetwork>(cfg);
  auto* hybrid = dynamic_cast<HybridNetwork*>(net.get());
  RunFingerprint fp;
  net->set_deliver_handler([&fp](const PacketPtr& p, Cycle at) {
    ++fp.fields["delivered"];
    fp.deliveries.emplace(p->id, at);
  });
  if (s.arm) s.arm(*net);
  if (s.config_faults) hybrid->enable_config_faults(*s.config_faults);

  std::size_t pos = 0;
  PacketId next_id = 1;
  while (net->now() < s.stimulus_cycles) {
    const Cycle now = net->now();
    for (const Cycle rc : s.resizes) {
      if (rc == now) hybrid->controller().request_resize();
    }
    for (; pos < s.traffic.size() && s.traffic[pos].cycle <= now; ++pos) {
      const TraceEntry& e = s.traffic[pos];
      auto p = std::make_shared<Packet>();
      p->id = next_id++;
      p->src = e.src;
      p->dst = e.dst;
      p->num_flits = e.flits;
      p->cs_eligible = e.flits >= cfg.cs_data_flits;
      net->ni(e.src).send(std::move(p), now);
    }
    net->tick();
  }
  if (s.config_faults) hybrid->disable_config_faults();
  const Cycle end = net->now() + s.cooldown_cycles;
  while (net->now() < end) net->tick();
  harvest(*net, fp);
  if (profile) *profile = net->tick_profile();
  return fp;
}

/// A seeded synthetic source sampled every cycle of [0, cycles), 5-flit
/// packets, then `cooldown` quiet cycles.
Stimulus synthetic(NocConfig cfg, TrafficPattern pattern, double rate,
                   Cycle cycles, std::uint64_t seed, Cycle cooldown = 3000) {
  Stimulus s{
      .cfg = cfg, .stimulus_cycles = cycles, .cooldown_cycles = cooldown};
  const Mesh mesh(cfg.k);
  SyntheticTraffic traffic(mesh, pattern, rate, 5, seed);
  for (Cycle c = 0; c < cycles; ++c) {
    traffic.generate([&](NodeId src, NodeId dst) {
      s.traffic.push_back({c, src, dst, 5});
    });
  }
  return s;
}

/// A workload trace replayed once through.
Stimulus trace(NocConfig cfg, std::vector<TraceEntry> entries,
               Cycle cooldown) {
  const Cycle end = entries.back().cycle + 1;
  return {.cfg = cfg, .traffic = std::move(entries), .stimulus_cycles = end,
          .cooldown_cycles = cooldown};
}

NocConfig small_hybrid_cfg(bool sharing = false) {
  NocConfig cfg =
      sharing ? NocConfig::hybrid_tdm_hop_vc4(4) : NocConfig::hybrid_tdm_vc4(4);
  cfg.slot_table_size = 32;
  cfg.initial_active_slots = 16;
  cfg.path_freq_threshold = 4;  // circuits form quickly at test scale
  return cfg;
}

/// Dynamic slot sizing from 8 active slots: resizes fire at test scale.
NocConfig resizing_hybrid_cfg() {
  NocConfig cfg = small_hybrid_cfg();
  cfg.dynamic_slot_sizing = true;
  cfg.initial_active_slots = 8;
  return cfg;
}

/// Data-plane faults: a transient bit-error rate recovered by CRC and
/// end-to-end retransmission. Corruption draws are stateless hashes of
/// (seed, link, traversal count), so equal traversal orders give equal
/// firings at every thread count.
NocConfig ber_hybrid_cfg(std::uint64_t fault_seed) {
  NocConfig cfg = small_hybrid_cfg();
  cfg.link_ber = 1e-3;
  cfg.fault_seed = fault_seed;
  cfg.e2e_recovery = true;
  cfg.retx_timeout_cycles = 512;
  return cfg;
}

/// Config-plane faults: drop 2 %, delay 2 % (up to 40 cycles), dup 1 %.
ConfigFaultParams config_faults(std::uint64_t seed) {
  return {0.02, 0.02, 0.01, 40, seed};
}

// The NN-dataflow and coherence generators double as storm substrates: they
// mix circuit-forming long-lived flows with circuit-ineligible short
// control messages.
const char kStormNnDag[] = R"(
# 4x4 storm pipeline: three stages, heavy recurring pairs
mesh 4
layer in   0 0 4 1
layer mid  0 1 4 2
layer out  0 3 4 1
edge in  mid 4096
edge mid out 2048
)";

// Long recurring flows spanning the whole 32x32 mesh: the top edge row
// feeds two middle rows, which feed the bottom edge row.
const char kMesh32NnDag[] = R"(
mesh 32
layer in   0 0 32 1
layer mid  0 8 32 2
layer out  0 31 32 1
edge in  mid 8192
edge mid out 4096
)";

std::vector<TraceEntry> nn_trace(const char* dag, int iterations,
                                 std::uint64_t seed) {
  return generate_nn_trace(parse_nn_descriptor_string(dag, "catalog-nn"),
                           {.iterations = iterations, .seed = seed});
}

std::vector<TraceEntry> storm_coherence_trace() {
  return generate_coherence_trace(
             {.k = 4, .cycles = 3000, .request_rate = 0.04, .seed = 5})
      .entries;
}

/// A shrunk fault fixture replayed as run_fault_scenario replays it, plus
/// a quiet tail of two reservation leases so orphaned entries expire (the
/// lost_teardown fixture's whole point).
Stimulus fixture(const std::string& stem) {
  const FaultScenario fs = read_fault_scenario_file(
      std::string(HN_FIXTURE_DIR) + "/" + stem + ".scenario");
  return {.cfg = fs.to_config(),
          .traffic = fs.traffic,
          .stimulus_cycles = fs.run_cycles + fs.cooldown_cycles,
          .cooldown_cycles = 2 * fs.reservation_lease_cycles,
          .resizes = fs.resizes,
          .arm = [fs](Network& net) {
            arm_fault_replay(dynamic_cast<HybridNetwork&>(net), fs);
          }};
}

struct Scenario {
  /// Test names: SchedulerEquivalence.<sched_name> runs the golden check,
  /// ThreadEquivalence.<thread_name> adds the thread cross. A null
  /// thread_name marks a serial-only scenario (vc_power_gating, which
  /// validate refuses with tick_threads > 1); a null sched_name, one the
  /// scheduler suite never listed.
  const char* sched_name;
  const char* thread_name;
  /// Digest of the serial run's fingerprint.
  std::uint64_t golden;
  Stimulus (*make)();
  /// Non-vacuity: more deliveries than this, and every listed field > 0.
  std::uint64_t min_delivered = 0;
  std::vector<const char*> fired = {};
  /// A tests/tdm/fixtures replay, reported under the Fixtures/ suites with
  /// its file stem as the name.
  bool fixture = false;
};

const std::vector<Scenario>& catalog() {
  static const std::vector<Scenario> scenarios = {
      {"PacketSwitchedUniform", "PacketSwitchedUniform", 0x5bc7ee768aa13e03ull,
       [] {
         return synthetic(NocConfig::packet_vc4(4),
                          TrafficPattern::UniformRandom, 0.12, 5000, 11);
       },
       100},
      // VC power gating: the epoch catch-up of sleeping routers must align
      // exactly.
      {"PacketSwitchedHotspotWithGating", nullptr, 0x23e3c48a6f1e7cd0ull,
       [] {
         NocConfig cfg = NocConfig::packet_vc4(4);
         cfg.vc_power_gating = true;
         return synthetic(cfg, TrafficPattern::Hotspot, 0.08, 5000, 7);
       },
       100},
      // Named for the engine it once ran (the every-component sweep); its
      // golden is that engine's digest.
      {nullptr, "PacketSwitchedLegacySweep", 0x12ace3020df6f402ull,
       [] {
         return synthetic(NocConfig::packet_vc4(4), TrafficPattern::Hotspot,
                          0.08, 4000, 7);
       },
       100},
      {"HybridUniform", "HybridUniform", 0xa797531ee84aaad7ull,
       [] {
         return synthetic(small_hybrid_cfg(), TrafficPattern::UniformRandom,
                          0.10, 6000, 21);
       },
       100, {"cs_packets"}},
      {"HybridSharingHotspot", "HybridSharingHotspot", 0x3c5467e5490a31f6ull,
       [] {
         return synthetic(small_hybrid_cfg(/*sharing=*/true),
                          TrafficPattern::Hotspot, 0.08, 6000, 31);
       },
       100},
      // Seeded dispatch faults force the parallel engine's serial fallback
      // (the fault RNG stream is order-defined); switching them off for the
      // cooldown proves the hand-off back to parallel cycles is seamless.
      {"SeededFaultStorm", "SeededConfigFaultStorm", 0xb78498ccb29ec8a0ull,
       [] {
         Stimulus s = synthetic(resizing_hybrid_cfg(),
                                TrafficPattern::UniformRandom, 0.10, 8000, 99,
                                6000);
         s.config_faults = config_faults(1234);
         s.resizes = {2500, 5500};
         return s;
       },
       100, {"faults_dropped", "resizes"}},
      // A permanent link death and a stuck window on top of the BER.
      {"SeededLinkFaultStorm", "SeededLinkFaultStorm", 0x044c1c57133be945ull,
       [] {
         Stimulus s = synthetic(ber_hybrid_cfg(77),
                                TrafficPattern::UniformRandom, 0.08, 6000, 17,
                                8000);
         s.arm = [](Network& net) {
           net.ensure_fault_model().kill_link(5, Port::East, 2500);
           net.ensure_fault_model().stick_link(9, Port::North, 4000, 600);
         };
         return s;
       },
       100,
       {"corrupted_traversals", "crc_flagged", "retransmits", "failed_links"}},
      {"NnDataflowFaultStorm", "NnDataflowFaultStorm", 0x14f84f0110ebe11aull,
       [] {
         Stimulus s =
             trace(resizing_hybrid_cfg(), nn_trace(kStormNnDag, 6, 3), 6000);
         s.config_faults = config_faults(4321);
         return s;
       },
       100, {"cs_packets", "faults_delayed"}},
      {nullptr, "NnDataflowStorm", 0xae992034d283713cull,
       [] {
         Stimulus s =
             trace(ber_hybrid_cfg(57), nn_trace(kStormNnDag, 6, 3), 8000);
         s.arm = [](Network& net) {
           net.ensure_fault_model().stick_link(9, Port::North, 400, 300);
         };
         return s;
       },
       100, {"cs_packets", "corrupted_traversals"}},
      {"CoherenceLinkFaultStorm", "CoherenceLinkFaultStorm",
       0xa9d835447f6d97adull,
       [] {
         Stimulus s = trace(ber_hybrid_cfg(42), storm_coherence_trace(), 8000);
         s.arm = [](Network& net) {
           net.ensure_fault_model().kill_link(6, Port::East, 1500);
         };
         return s;
       },
       100, {"corrupted_traversals", "crc_flagged", "failed_links"}},
      {nullptr, "CoherenceStorm", 0x0fc3f07f4b0a5b84ull,
       [] {
         Stimulus s =
             trace(resizing_hybrid_cfg(), storm_coherence_trace(), 6000);
         s.config_faults = config_faults(2468);
         return s;
       },
       100, {"faults_dropped"}},
      // 32x32: the run list's stale-entry pruning sees thousands of
      // components wake and sleep each cycle, and at up to 8 shards the
      // parallel engine partitions by whole rows.
      {"Mesh32Uniform", "Mesh32Uniform", 0x7c4b657f5fc75456ull,
       [] {
         return synthetic(NocConfig::packet_vc4(32),
                          TrafficPattern::UniformRandom, 0.02, 2000, 13);
       },
       500},
      {"Mesh32NnDataflow", "Mesh32NnDataflow", 0xd609c4336e76d6d6ull,
       [] {
         NocConfig cfg = NocConfig::hybrid_tdm_vc4(32);
         cfg.path_freq_threshold = 2;  // circuits form within the short trace
         return trace(cfg, nn_trace(kMesh32NnDag, 4, 9), 3000);
       },
       100, {"cs_packets"}},
      {"resize_race", "resize_race", 0x89f3e04aadbcc69dull,
       [] { return fixture("resize_race"); }, 0, {}, true},
      {"lost_teardown", "lost_teardown", 0xe44ccd98e48c6b72ull,
       [] { return fixture("lost_teardown"); }, 0, {"expired_reservations"},
       true},
      {"link_death_lease", "link_death_lease", 0xe13a62c12cef5e8aull,
       [] { return fixture("link_death_lease"); }, 0, {"failed_links"}, true},
  };
  return scenarios;
}

/// The one test body: the serial run against the golden and, with `cross`,
/// every other thread count against the serial run field by field.
void check(const Scenario& sc, bool cross) {
  const Stimulus s = sc.make();
  const RunFingerprint serial = run(s, 1);
  EXPECT_GT(serial["delivered"], sc.min_delivered);
  for (const char* name : sc.fired) EXPECT_GT(serial[name], 0u) << name;
  EXPECT_EQ(digest(serial), sc.golden)
      << "serial digest 0x" << hex64(digest(serial));
  if (!cross) return;
  for (const int t : parallel_thread_counts()) {
    SCOPED_TRACE("tick_threads " + std::to_string(t));
    expect_same(serial, run(s, t));
  }
}

/// Quiescence: fast_forward must not skip controller or lease boundaries.
/// Twin A ticks cycle by cycle on the serial engine; twin B, at `threads`,
/// fast-forwards over the same stretch (with the parallel engine the jump
/// target is the minimum over every shard's wake heap). Both tick up to
/// `poke_at`, where `poke` runs on each. At `horizon` their fingerprints
/// must match, energy integrals included. Returns twin A's.
template <typename Net>
RunFingerprint tick_vs_fast_forward(NocConfig cfg, int threads, Cycle poke_at,
                                    Cycle horizon,
                                    const std::function<void(Net&)>& poke) {
  Net ticked(cfg);
  cfg.tick_threads = threads;
  Net jumped(cfg);
  for (Net* net : {&ticked, &jumped}) {
    while (net->now() < poke_at) net->tick();
    poke(*net);
  }
  while (ticked.now() < horizon) ticked.tick();
  jumped.fast_forward(horizon);
  RunFingerprint a, b;
  harvest(ticked, a);
  harvest(jumped, b);
  expect_same(a, b);
  return a;
}

/// A resize request landing mid-stretch: the slot-table leakage rate
/// changes when the active region doubles.
void expect_resize_survives_fast_forward(int threads) {
  const RunFingerprint a = tick_vs_fast_forward<HybridNetwork>(
      resizing_hybrid_cfg(), threads, 50, 5050,
      [](HybridNetwork& net) { net.controller().request_resize(); });
  EXPECT_GE(a["resizes"], 1u);
}

/// An orphan reservation planted before the first tick (while everything
/// is still active, as a real config message would find it): with no
/// traffic refreshing it, only router 5's lease sweep can reclaim it — at a
/// 1024-aligned cycle past the lease, on the shard that owns router 5.
void expect_lease_expiry_survives_fast_forward(int threads) {
  NocConfig cfg = small_hybrid_cfg();
  cfg.reservation_lease_cycles = 2048;
  const RunFingerprint a = tick_vs_fast_forward<HybridNetwork>(
      cfg, threads, 0, 3 * cfg.reservation_lease_cycles,
      [](HybridNetwork& net) {
        ASSERT_TRUE(net.hybrid_router(5).slots().reserve(3, 2, Port::West,
                                                         Port::East, 77, 0));
      });
  EXPECT_EQ(a["expired_reservations"], 2u);
  EXPECT_EQ(a["valid_slot_entries"], 0u);
}

/// An idle gated network fast-forwarded 10k cycles reports exactly the
/// energy integrals of 10k live no-op ticks. Serial only (gating).
void expect_idle_energy_survives_fast_forward(int threads) {
  NocConfig cfg = NocConfig::packet_vc4(4);
  cfg.vc_power_gating = true;
  tick_vs_fast_forward<Network>(cfg, threads, 0, 10000, [](Network&) {});
}

struct CatalogTest : testing::Test {
  explicit CatalogTest(std::function<void()> b) : body(std::move(b)) {}
  void TestBody() override { body(); }
  std::function<void()> body;
};

void add_test(const std::string& suite, const std::string& name,
              const std::string& param, std::function<void()> body) {
  testing::RegisterTest(suite.c_str(), name.c_str(), nullptr,
                        param.empty() ? nullptr : param.c_str(), __FILE__,
                        __LINE__, [body]() -> testing::Test* {
                          return new CatalogTest(body);
                        });
}

void add_scenario_test(const Scenario& sc, bool cross) {
  const char* name = cross ? sc.thread_name : sc.sched_name;
  if (!name) return;
  std::string suite = cross ? "ThreadEquivalence" : "SchedulerEquivalence";
  std::string test = name;
  std::string param;
  if (sc.fixture) {
    suite = cross ? "Fixtures/ThreadFixtureEquivalence"
                  : "Fixtures/FixtureEquivalence";
    test = (cross ? "ReplayedStormMatchesAcrossThreadCounts/"
                  : "ReplayedStormMatchesAcrossEngines/") +
           test;
    param = "\"" + std::string(name) + ".scenario\"";
  }
  add_test(suite, test, param, [&sc, cross] { check(sc, cross); });
}

[[maybe_unused]] const bool kRegistered = [] {
  for (const Scenario& sc : catalog()) {
    add_scenario_test(sc, /*cross=*/false);
    add_scenario_test(sc, /*cross=*/true);
  }
  // Each quiescence check once per engine: serial, then (unless it needs
  // vc_power_gating) every parallel thread count.
  const auto add_quiescence = [](const char* name, void (*check)(int),
                                 bool cross) {
    add_test("SchedulerQuiescence", name, "", [check] { check(1); });
    if (!cross) return;
    add_test("ThreadQuiescence", name, "", [check] {
      for (const int t : parallel_thread_counts()) check(t);
    });
  };
  add_quiescence("FastForwardExecutesPendingResize",
                 expect_resize_survives_fast_forward, true);
  add_quiescence("FastForwardExecutesLeaseExpiry",
                 expect_lease_expiry_survives_fast_forward, true);
  add_quiescence("FastForwardMatchesTickOnIdleNetwork",
                 expect_idle_energy_survives_fast_forward, false);
  return true;
}();

TEST(ThreadEquivalence, AllocCountsMatchAcrossThreadCounts) {
  // Shard workers count into their own thread's AllocStats; the network
  // folds their per-cycle deltas into its profile, so a run's counts do not
  // depend on the thread count. Which thread frees a block decides whether
  // the next allocation hits its pool, so only hits + misses is fixed.
  const Stimulus s = synthetic(small_hybrid_cfg(),
                               TrafficPattern::UniformRandom, 0.10, 6000, 21);
  const auto counts = [&s](int threads) {
    TickProfile p;
    run(s, threads, &p);
    return std::vector<std::uint64_t>{p.packets_minted, p.flight_acquires,
                                      p.flight_releases,
                                      p.pool_hits + p.pool_misses};
  };
  const std::vector<std::uint64_t> serial = counts(1);
  EXPECT_GT(serial[0], 0u);
  EXPECT_GT(serial[1], 0u);
  EXPECT_GT(serial[2], 0u);
  // Sanitizer builds compile the pool out of PoolAlloc: no pool traffic.
  EXPECT_EQ(serial[3] > 0, !HN_POOL_DISABLED);
  for (const int t : parallel_thread_counts()) {
    EXPECT_EQ(counts(t), serial) << "tick_threads " << t;
  }
}

TEST(ThreadEquivalence, ValidateRejectsGatingWithThreads) {
  // vc_power_gating announcements cross router boundaries without a
  // pipelined channel, the one communication path the shard barrier cannot
  // make order-independent; the config must refuse the combination.
  NocConfig cfg = NocConfig::packet_vc4(4);
  cfg.vc_power_gating = true;
  cfg.tick_threads = 4;
  EXPECT_DEATH({ Network net(cfg); }, "vc_power_gating");
}

}  // namespace
}  // namespace hybridnoc
