#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <unistd.h>

#include "checks.hpp"
#include "common/config.hpp"
#include "common/fileio.hpp"
#include "common/pool.hpp"
#include "fastmodel/fast_model.hpp"
#include "hetero/hetero_system.hpp"
#include "noc/network.hpp"
#include "power/energy_model.hpp"
#include "sim/driver.hpp"
#include "span.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/sweep_spec.hpp"
#include "tdm/hybrid_network.hpp"
#include "traffic/synthetic.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using namespace hybridnoc;

namespace {

// Span names. Each is one literal, so the recorder matches it by address.
constexpr const char* kGenerate = "traffic.generate";
constexpr const char* kSend = "noc.send";
constexpr const char* kTick = "noc.tick";
constexpr const char* kHeteroTick = "hetero.tick";
constexpr const char* kSweep = "sweep.run_sweep";
constexpr const char* kPointPacket = "sim.point.packet";
constexpr const char* kPointTdm = "sim.point.tdm";
constexpr const char* kPointSdm = "sdm.point";
constexpr const char* kWarmupSnapshot = "sim.warmup_snapshot";
constexpr const char* kFromSnapshot = "sim.run_synthetic_from_snapshot";
constexpr const char* kFastRun = "fastmodel.run";

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean self time of one span name, in `unit_ns` units per call.
double mean_self(const char* name, double unit_ns) {
  const SpanRecorder::Totals t = SpanRecorder::instance().totals(name);
  return ratio(static_cast<double>(t.self_ns) / unit_ns,
               static_cast<double>(t.count));
}

/// Mean duration (children included) of one span name.
double mean_total(const char* name, double unit_ns) {
  const SpanRecorder::Totals t = SpanRecorder::instance().totals(name);
  return ratio(static_cast<double>(t.total_ns) / unit_ns,
               static_cast<double>(t.count));
}

HybridNetwork* hybrid_of(NetAdapter& net) {
  return dynamic_cast<HybridNetwork*>(net.mesh_network_mut());
}

/// Monotone counters of one network, for window deltas.
struct NetSnap {
  EnergyCounters energy;
  std::uint64_t ps = 0, cs = 0, config = 0;
  std::uint64_t setups = 0, setup_failures = 0, setup_successes = 0;
  std::uint64_t give_ups = 0, pending_timeouts = 0;
  std::uint64_t rejected_latency = 0, rejected_no_window = 0;
  std::uint64_t hitchhike = 0, vicinity = 0;
  int resizes = 0;

  static NetSnap take(NetAdapter& net) {
    NetSnap s;
    s.energy = net.energy();
    s.ps = net.ps_flits();
    s.cs = net.cs_flits();
    s.config = net.config_flits();
    if (HybridNetwork* h = hybrid_of(net)) {
      s.setups = h->total_setups_sent();
      s.setup_failures = h->controller().total_setup_failures();
      s.setup_successes = h->controller().total_setup_successes();
      s.give_ups = h->total_setup_give_ups();
      s.pending_timeouts = h->total_pending_timeouts();
      s.hitchhike = h->total_hitchhike_packets();
      s.vicinity = h->total_vicinity_packets();
      s.resizes = h->controller().resizes();
      for (NodeId n = 0; n < h->num_nodes(); ++n) {
        s.rejected_latency += h->hybrid_ni(n).cs_rejected_latency();
        s.rejected_no_window += h->hybrid_ni(n).cs_rejected_no_window();
      }
    }
    return s;
  }
};

/// tdm.* and power.* over the model windows of one or more networks.
struct TdmPower {
  NetSnap d;  // summed deltas
  double active_connections = 0, valid_slot_entries = 0;

  void add(const NetSnap& a, const NetSnap& b, NetAdapter& net) {
    d.energy += b.energy - a.energy;
    d.ps += b.ps - a.ps;
    d.cs += b.cs - a.cs;
    d.config += b.config - a.config;
    d.setups += b.setups - a.setups;
    d.setup_failures += b.setup_failures - a.setup_failures;
    d.setup_successes += b.setup_successes - a.setup_successes;
    d.give_ups += b.give_ups - a.give_ups;
    d.pending_timeouts += b.pending_timeouts - a.pending_timeouts;
    d.rejected_latency += b.rejected_latency - a.rejected_latency;
    d.rejected_no_window += b.rejected_no_window - a.rejected_no_window;
    d.hitchhike += b.hitchhike - a.hitchhike;
    d.vicinity += b.vicinity - a.vicinity;
    d.resizes += b.resizes - a.resizes;
    if (HybridNetwork* h = hybrid_of(net)) {
      active_connections += h->total_active_connections();
      valid_slot_entries += h->total_valid_slot_entries();
    }
  }

  void emit(Outcome& out, double cycles, double flits) const {
    auto& v = out.values;
    const double ps = static_cast<double>(d.ps);
    const double cs = static_cast<double>(d.cs);
    const double cf = static_cast<double>(d.config);
    v["tdm.cs_flit_fraction"] = ratio(cs, ps + cs);
    v["tdm.config_flit_fraction"] = ratio(cf, ps + cs + cf);
    v["tdm.setup_success_ratio"] =
        ratio(static_cast<double>(d.setup_successes),
              static_cast<double>(d.setup_successes + d.setup_failures));
    v["tdm.setups_per_kcycle"] =
        ratio(static_cast<double>(d.setups) * 1000.0, cycles);
    v["tdm.setup_give_ups"] = static_cast<double>(d.give_ups);
    v["tdm.pending_timeouts"] = static_cast<double>(d.pending_timeouts);
    v["tdm.cs_rejected_latency"] = static_cast<double>(d.rejected_latency);
    v["tdm.cs_rejected_no_window"] =
        static_cast<double>(d.rejected_no_window);
    v["tdm.hitchhike_packets"] = static_cast<double>(d.hitchhike);
    v["tdm.vicinity_packets"] = static_cast<double>(d.vicinity);
    v["tdm.active_connections"] = active_connections;
    v["tdm.valid_slot_entries"] = valid_slot_entries;
    v["tdm.resizes"] = static_cast<double>(d.resizes);
    v["tdm.dlt_accesses"] = static_cast<double>(d.energy.dlt_accesses);

    const EnergyBreakdown e =
        compute_breakdown(d.energy, EnergyParams::nangate45());
    v["power.buffer_pj_per_flit"] =
        ratio(e.dynamic(EnergyComponent::Buffer), flits);
    v["power.crossbar_pj_per_flit"] =
        ratio(e.dynamic(EnergyComponent::Crossbar), flits);
    v["power.link_pj_per_flit"] =
        ratio(e.dynamic(EnergyComponent::Link), flits);
    v["power.slot_table_pj_per_flit"] =
        ratio(e.dynamic(EnergyComponent::CsComponent), flits);
    v["power.leakage_pj_per_flit"] = ratio(e.total_static(), flits);
    v["model_energy_pj_per_flit"] = ratio(e.total(), flits);
  }
};

/// Drain a mesh network after the timed windows and check it delivered
/// everything it was sent and left no broken reservation behind.
void drain_and_audit(NetAdapter& net, Outcome& out, const std::string& what) {
  Network* mesh = net.mesh_network_mut();
  const bool drained = mesh != nullptr && mesh->drain(2'000'000);
  out.check(check_drained(drained, net.data_sent(), net.data_delivered(),
                          what));
  if (HybridNetwork* h = hybrid_of(net)) {
    const ReservationAudit a = h->audit_reservations();
    out.check(check_audit_clean(a.broken_windows, a.orphan_entries, what));
  }
}

// --- loaded8 / mesh32: uniform random load on a Hybrid-TDM mesh ---

struct SyntheticSpec {
  const char* name;
  int k;
  double rate;          ///< flits/node/cycle
  int threads;          ///< NocConfig::tick_threads
  int warmup_cycles;    ///< untimed, part of setup
  int window_cycles;    ///< simulated cycles per timed window
  int model_windows;
  int twin_cycles;      ///< serial vs threaded twin after timing (0 = none)
};

constexpr SyntheticSpec kLoaded8{"loaded8", 8, 0.3, 1, 5000, 1000, 40, 0};
constexpr SyntheticSpec kMesh32{"mesh32", 32, 0.05, 2, 1000, 100, 20, 600};

/// Bernoulli uniform-random injection straight into a NetAdapter, one
/// generate + tick per simulated cycle. Latency and delivered counts are
/// accumulated for the model digest.
class SyntheticDriver {
 public:
  SyntheticDriver(const NocConfig& cfg, double rate, std::uint64_t seed)
      : net_(make_network(cfg)),
        traffic_(net_->mesh(), TrafficPattern::UniformRandom, rate,
                 cfg.ps_data_flits, seed),
        flits_(cfg.ps_data_flits) {
    net_->set_deliver_handler([this](const PacketPtr& p, Cycle at) {
      ++delivered_;
      latency_sum_ += at - p->created;
      digest_.add(static_cast<std::uint64_t>(p->id));
      digest_.add(static_cast<std::uint64_t>(at));
    });
  }

  void cycle() {
    {
      Span g(kGenerate);
      traffic_.generate([this](NodeId src, NodeId dst) {
        Span s(kSend);
        if (net_->inject_queue_depth(src) > 2000) {
          saturated_ = true;  // source queues diverging: deep saturation
          return;
        }
        auto p = make_packet();
        p->id = ++sent_;
        p->src = src;
        p->dst = dst;
        p->num_flits = flits_;
        p->cs_eligible = true;
        net_->send(std::move(p));
      });
    }
    Span t(kTick);
    net_->tick();
  }

  NetAdapter& net() { return *net_; }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t latency_sum() const { return latency_sum_; }
  bool saturated() const { return saturated_; }
  int flits() const { return flits_; }
  std::uint64_t digest() const { return digest_.value(); }

 private:
  std::unique_ptr<NetAdapter> net_;
  SyntheticTraffic traffic_;
  int flits_;
  std::uint64_t sent_ = 0, delivered_ = 0, latency_sum_ = 0;
  bool saturated_ = false;
  Digest digest_;
};

class SyntheticLoad : public Workload {
 public:
  SyntheticLoad(const SyntheticSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed), cfg_(NocConfig::hybrid_tdm_vc4(spec.k)) {
    cfg_.seed = seed;
    cfg_.tick_threads = spec.threads;
    drv_.emplace(cfg_, spec.rate, seed);
    for (int c = 0; c < spec.warmup_cycles; ++c) drv_->cycle();
    start_ = Mark::take(*drv_);
  }

  int model_windows() const override { return spec_.model_windows; }

  double window() override {
    for (int c = 0; c < spec_.window_cycles; ++c) drv_->cycle();
    return spec_.window_cycles;
  }

  void close_model(Outcome& out) override {
    const Mark end = Mark::take(*drv_);
    const double cycles =
        static_cast<double>(spec_.window_cycles) * spec_.model_windows;
    const double delivered = static_cast<double>(end.delivered - start_.delivered);
    const double flits = delivered * drv_->flits();
    const double offered =
        static_cast<double>(end.sent - start_.sent) * drv_->flits();
    const double latency =
        ratio(static_cast<double>(end.latency_sum - start_.latency_sum),
              delivered);
    out.values["model_latency_cycles"] = latency;
    TdmPower tp;
    tp.add(start_.net, end.net, drv_->net());
    tp.emit(out, cycles, flits);

    // Same criteria as the driver: a diverging source queue, latency past
    // the 500-cycle cap, or accepting under 85 % of what was offered.
    model_saturated_ = drv_->saturated() || latency > 500.0 ||
                       flits < 0.85 * offered;
    Digest d;
    d.add(drv_->digest());
    d.add(end.net.energy);
    d.add(end.sent);
    out.model_digest = d.value();
  }

  void finish(Outcome& out, bool traced) override {
    out.attempt();
    out.check(check_not_saturated(model_saturated_ || drv_->saturated(),
                                  spec_.name));
    const TickProfile p = drv_->net().mesh_network()->tick_profile();
    const double cycles = static_cast<double>(p.cycles - start_.profile.cycles);
    const double dispatches =
        static_cast<double>(p.ni_ticks + p.router_ticks -
                            start_.profile.ni_ticks -
                            start_.profile.router_ticks);
    auto& v = out.values;
    v["noc.dispatches_per_cycle"] = ratio(dispatches, cycles);
    v["noc.pool_misses_per_cycle"] =
        ratio(static_cast<double>(p.pool_misses - start_.profile.pool_misses),
              cycles);
    v["noc.flight_acquires_per_cycle"] = ratio(
        static_cast<double>(p.flight_acquires - start_.profile.flight_acquires),
        cycles);
    v["noc.watchdog_sweeps"] =
        static_cast<double>(p.watchdog_sweeps - start_.profile.watchdog_sweeps);
    if (traced) {
      const SpanRecorder::Totals tick = SpanRecorder::instance().totals(kTick);
      v["noc.tick_us"] = mean_self(kTick, 1e3);
      v["noc.ns_per_dispatch"] =
          ratio(static_cast<double>(tick.self_ns), dispatches);
      v["noc.send_ns"] = mean_self(kSend, 1.0);
      v["traffic.generate_ns_per_cycle"] = mean_self(kGenerate, 1.0);
    }
    drain_and_audit(drv_->net(), out, spec_.name);
    if (spec_.twin_cycles > 0) thread_twin(out, traced);
  }

 private:
  struct Mark {
    std::uint64_t sent = 0, delivered = 0, latency_sum = 0;
    NetSnap net;
    TickProfile profile;
    static Mark take(SyntheticDriver& drv) {
      return {drv.sent(), drv.delivered(), drv.latency_sum(),
              NetSnap::take(drv.net()),
              drv.net().mesh_network()->tick_profile()};
    }
  };

  /// The same seeded run, serial and on spec_.threads threads, from a cold
  /// network: the parallel engine must not change a single delivery.
  void thread_twin(Outcome& out, bool traced) {
    std::uint64_t digest[2] = {0, 0};
    double tick_s[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      NocConfig cfg = cfg_;
      cfg.tick_threads = i == 0 ? 1 : spec_.threads;
      SyntheticDriver drv(cfg, spec_.rate, seed_);
      const auto t0 = Clock::now();
      for (int c = 0; c < spec_.twin_cycles; ++c) drv.cycle();
      tick_s[i] = seconds_since(t0);
      Digest d;
      d.add(drv.digest());
      d.add(drv.net().energy());
      digest[i] = d.value();
    }
    out.attempt();
    out.check(check_same_digest(digest[0], digest[1],
                                std::string(spec_.name) +
                                    " serial vs threaded twin"));
    if (traced) out.values["noc.parallel_speedup"] = ratio(tick_s[0], tick_s[1]);
  }

  SyntheticSpec spec_;
  std::uint64_t seed_;
  NocConfig cfg_;
  std::optional<SyntheticDriver> drv_;
  Mark start_;
  bool model_saturated_ = false;
};

// --- hetero36: the Fig. 8 CPU+GPU system under Hybrid-TDM-hop-VCt ---

/// Repeated Fig. 8 evaluations of two CPU+GPU mixes at the repo's default
/// (CI) scale: each evaluation builds both systems, warms them for 5000
/// cycles (untimed) and measures 18000 cycles in 500-cycle windows. Every
/// evaluation uses the same seed, so each must reproduce the first.
class HeteroPair : public Workload {
 public:
  static constexpr const char* kCpu = "EQUAKE";
  static constexpr int kWarmupCycles = 5000;
  static constexpr int kWindowCycles = 500;  // per system
  static constexpr int kEvalWindows = 36;    // 18000 measured cycles

  explicit HeteroPair(std::uint64_t seed) : seed_(seed) { build(); }

  int model_windows() const override { return kEvalWindows; }

  void before_window(Outcome& out) override {
    if (windows_ < kEvalWindows) return;
    const std::uint64_t d = eval_digest();
    out.attempt();
    out.check(check_same_digest(first_digest_, d, "hetero36 evaluations"));
    check_systems(out);
    build();
  }

  double window() override {
    for (Sys& s : systems_) {
      for (int c = 0; c < kWindowCycles; ++c) {
        Span t(kHeteroTick);
        s.sys->tick();
      }
    }
    ++windows_;
    return static_cast<double>(kWindowCycles) * systems_.size();
  }

  void close_model(Outcome& out) override {
    const double cycles = static_cast<double>(kWindowCycles) * kEvalWindows;
    double ipc = 0, txn = 0, flits = 0;
    TdmPower tp;
    for (Sys& s : systems_) {
      const Mark end = Mark::take(*s.sys);
      const double cpus = static_cast<double>(s.sys->tiles().cpus().size());
      ipc += static_cast<double>(end.instructions - s.start.instructions) /
             (cycles * cpus);
      txn += static_cast<double>(end.gpu_txns - s.start.gpu_txns) / cycles;
      flits += static_cast<double>(end.net.ps - s.start.net.ps +
                                   end.net.cs - s.start.net.cs);
      tp.add(s.start.net, end.net, s.sys->network());
    }
    const double n = static_cast<double>(systems_.size());
    out.values["model_cpu_ipc"] = ipc / n;
    out.values["model_gpu_txn_per_cycle"] = txn / n;
    tp.emit(out, cycles * n, flits);
    first_digest_ = eval_digest();
    out.model_digest = first_digest_;
  }

  void finish(Outcome& out, bool traced) override {
    double outstanding = 0;
    for (Sys& s : systems_) {
      outstanding += static_cast<double>(s.sys->outstanding_transactions());
    }
    out.values["hetero.outstanding_txns"] = outstanding;
    if (traced) {
      out.values["hetero.tick_us"] = mean_self(kHeteroTick, 1e3);
      out.values["hetero.construct_ms"] = construct_ms_;
    }
    check_systems(out);
  }

 private:
  struct Mark {
    std::uint64_t instructions = 0, gpu_txns = 0;
    NetSnap net;
    static Mark take(HeteroSystem& sys) {
      return {sys.total_cpu_instructions(), sys.total_gpu_transactions(),
              NetSnap::take(sys.network())};
    }
  };
  struct Sys {
    std::unique_ptr<HeteroSystem> sys;
    Mark start;
  };

  void build() {
    systems_.clear();
    const auto t0 = Clock::now();
    for (const char* gpu : {"STO", "BLACKSCHOLES"}) {
      const WorkloadMix mix{cpu_benchmark(kCpu), gpu_benchmark(gpu)};
      systems_.push_back(
          {std::make_unique<HeteroSystem>(NocConfig::hybrid_tdm_hop_vct(6),
                                          mix, seed_),
           {}});
    }
    construct_ms_ = seconds_since(t0) * 1e3;
    for (Sys& s : systems_) {
      for (int c = 0; c < kWarmupCycles; ++c) s.sys->tick();
      s.start = Mark::take(*s.sys);
    }
    windows_ = 0;
  }

  /// The measured counters of the current evaluation so far.
  std::uint64_t eval_digest() {
    Digest d;
    for (Sys& s : systems_) {
      const Mark end = Mark::take(*s.sys);
      d.add(end.instructions - s.start.instructions);
      d.add(end.gpu_txns - s.start.gpu_txns);
      d.add(end.net.energy - s.start.net.energy);
      d.add(end.net.ps - s.start.net.ps);
      d.add(end.net.cs - s.start.net.cs);
    }
    return d.value();
  }

  void check_systems(Outcome& out) {
    for (Sys& s : systems_) {
      out.attempt();
      drain_and_audit(s.sys->network(), out, "hetero36 system");
    }
  }

  std::uint64_t seed_;
  std::vector<Sys> systems_;
  int windows_ = 0;
  std::uint64_t first_digest_ = 0;
  double construct_ms_ = 0;
};

// --- sweep8: a Fig. 4-shaped sweep through sweep::run_sweep ---

class Sweep8 : public Workload {
 public:
  static constexpr int kWorkers = 4;

  Sweep8(std::uint64_t seed, const std::string& workdir)
      : seed_(seed),
        root_(workdir + "/sweep8-" + std::to_string(::getpid())) {
    const std::string s = std::to_string(seed);
    const std::string text =
        "name = sweep8\n"
        "sweep preset = packet_vc4, hybrid_sdm_vc4, hybrid_tdm_vc4\n"
        "set k = 8\n"
        "set seed = " + s + "\n"
        "set cfg_seed = " + s + "\n"
        "set warmup_packets = 500\n"
        "set warmup_min_cycles = 1000\n"
        "set measure_packets = 1500\n"
        "sweep pattern = uniform, tornado\n"
        "sweep rate = 0.04, 0.08, 0.12, 0.16\n";
    sweep::SpecError err;
    if (!sweep::parse_sweep_spec(text, &spec_, &err)) {
      throw std::runtime_error(err.to_string());
    }
    std::filesystem::remove_all(root_);
    run_one(/*first=*/true);  // untimed: warms the host, not the sweep
  }

  ~Sweep8() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  int model_windows() const override { return 1; }

  /// Only the last sweep's directory is kept (for the cached re-run).
  void before_window(Outcome&) override {
    std::filesystem::remove_all(last_dir_);
  }

  double window() override { return run_one(false); }

  void close_model(Outcome& out) override {
    const int nodes = 64;
    double latency = 0, energy = 0, flits = 0;
    for (const sweep::ConfigOutcome& o : first_.outcomes) {
      latency += o.result.avg_latency;
      energy += o.result.total_energy_pj();
      flits += o.result.accepted_rate * nodes *
               static_cast<double>(o.result.cycles);
    }
    out.values["model_latency_cycles"] =
        latency / static_cast<double>(first_.outcomes.size());
    out.values["model_energy_pj_per_flit"] = ratio(energy, flits);
    out.model_digest = digest_of(first_);
  }

  void finish(Outcome& out, bool traced) override {
    const double points = static_cast<double>(spec_.points.size());
    auto& v = out.values;
    for (const Timed& t : sweeps_) {
      out.attempt(static_cast<int>(t.report.outcomes.size()));
      out.check(check_no_quarantine(t.report.degradation.quarantined));
      out.check(check_same_digest(digest_of(first_), digest_of(t.report),
                                  "sweep8 cold sweeps"));
      for (const sweep::ConfigOutcome& o : t.report.outcomes) {
        out.check(check_not_saturated(o.ok && o.result.saturated,
                                      "sweep point " + o.label));
      }
    }
    std::vector<double> wall;
    int retries = 0, timeouts = 0, quarantined = 0;
    for (const Timed& t : sweeps_) {
      wall.push_back(t.wall_s);
      retries += t.report.degradation.retries;
      timeouts += t.report.degradation.timeouts;
      quarantined += t.report.degradation.quarantined;
    }
    std::sort(wall.begin(), wall.end());
    const double median_wall = wall[wall.size() / 2];
    v["sweep_points_per_s"] = ratio(points, median_wall);
    v["sweep.retries"] = retries;
    v["sweep.timeouts"] = timeouts;
    v["sweep.quarantined"] = quarantined;

    // Checkpoints written by the last cold sweep versus the points that
    // could have shared them.
    int eligible = 0;
    for (const sweep::SweepPoint& pt : spec_.points) {
      if (pt.cfg.arch != RouterArch::HybridSdm) ++eligible;
    }
    int checkpoints = 0;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(
             last_dir_ + "/checkpoints", ec)) {
      (void)e;
      ++checkpoints;
    }
    v["sweep.checkpoint_reuse_ratio"] =
        ratio(static_cast<double>(eligible - checkpoints), eligible);

    // Cached re-run of the filled directory: read-and-verify only.
    std::string cold;
    read_file(last_dir_ + "/aggregate.tsv", &cold);
    sweep::SweepOptions opt;
    opt.out_dir = last_dir_;
    opt.workers = kWorkers;
    opt.resume = false;
    const auto t0 = Clock::now();
    const sweep::SweepReport cached = sweep::run_sweep(spec_, opt);
    v["sweep.cached_rerun_ms"] = seconds_since(t0) * 1e3;
    std::string rerun;
    read_file(cached.aggregate_path, &rerun);
    out.attempt(static_cast<int>(cached.outcomes.size()));
    out.check(check_no_quarantine(cached.degradation.quarantined));
    out.check(check_same_bytes(cold, rerun, "sweep8 cached re-run aggregate"));

    // One point, recomputed directly through the driver.
    const size_t pick = seed_ % spec_.points.size();
    const sweep::SweepPoint& pt = spec_.points[pick];
    out.attempt();
    out.check(check_point_matches(run_point(pt, traced),
                                  first_.outcomes[pick].result, cold,
                                  pt.label));

    if (traced) {
      // Every point once more, serially, to split the sweep's wall time by
      // the layer that computes each point.
      double serial_s = 0;
      for (const sweep::SweepPoint& p : spec_.points) {
        const auto t = Clock::now();
        run_point(p, false);
        serial_s += seconds_since(t);
      }
      v["sim.point_s.packet"] = mean_total(kPointPacket, 1e9);
      v["sim.point_s.tdm"] = mean_total(kPointTdm, 1e9);
      v["sdm.point_s"] = mean_total(kPointSdm, 1e9);
      v["sim.warmup_snapshot_ms"] = mean_self(kWarmupSnapshot, 1e6);
      v["sim.from_snapshot_ms"] = mean_self(kFromSnapshot, 1e6);
      v["sim.snapshot_kb"] = snapshot_kb_;
      v["sweep.parallel_efficiency"] =
          ratio(serial_s, kWorkers * median_wall);
    }
  }

 private:
  struct Timed {
    sweep::SweepReport report;
    double wall_s = 0;
  };

  static std::uint64_t digest_of(const sweep::SweepReport& r) {
    Digest d;
    for (const sweep::ConfigOutcome& o : r.outcomes) {
      d.add(o.hash);
      d.add(static_cast<std::uint64_t>(o.ok));
      d.add(o.result);
    }
    return d.value();
  }

  /// One cold sweep into a fresh directory. Returns the simulated cycles
  /// its points measured.
  double run_one(bool first) {
    last_dir_ = root_ + "/" + std::to_string(runs_++);
    sweep::SweepOptions opt;
    opt.out_dir = last_dir_;
    opt.workers = kWorkers;
    const auto t0 = Clock::now();
    sweep::SweepReport report;
    {
      Span s(kSweep);
      report = sweep::run_sweep(spec_, opt);
    }
    const double wall = seconds_since(t0);
    double cycles = 0;
    for (const sweep::ConfigOutcome& o : report.outcomes) {
      cycles += static_cast<double>(o.result.cycles);
    }
    if (first) {
      first_ = report;
    } else {
      sweeps_.push_back({std::move(report), wall});
    }
    return cycles;
  }

  /// The point through the driver entry point the orchestrator uses for it:
  /// the warmup checkpoint pair for mesh architectures, run_synthetic for
  /// SDM.
  RunResult run_point(const sweep::SweepPoint& pt, bool note_snapshot) {
    if (pt.cfg.arch == RouterArch::HybridSdm) {
      Span s(kPointSdm);
      return run_synthetic(pt.cfg, pt.params);
    }
    Span s(pt.cfg.arch == RouterArch::HybridTdm ? kPointTdm : kPointPacket);
    WarmupSnapshot snap;
    {
      Span w(kWarmupSnapshot);
      snap = warmup_snapshot(pt.cfg, pt.params);
    }
    if (!snap.ok) return run_synthetic_drained(pt.cfg, pt.params);
    if (note_snapshot) snapshot_kb_ = snap.sealed.size() / 1024.0;
    Span m(kFromSnapshot);
    return run_synthetic_from_snapshot(pt.cfg, pt.params, snap.sealed);
  }

  std::uint64_t seed_;
  std::string root_;
  std::string last_dir_;
  int runs_ = 0;
  sweep::SweepSpec spec_;
  sweep::SweepReport first_;
  std::vector<Timed> sweeps_;
  double snapshot_kb_ = 0;
};

// --- fast64: the transfer-level model on a 64x64 mesh ---

class Fast64 : public Workload {
 public:
  explicit Fast64(std::uint64_t seed) : seed_(seed) {
    cfg_ = NocConfig::hybrid_tdm_vc4(64);
    cfg_.seed = seed;
    WorkloadOptions opts;
    opts.k = 64;
    opts.seed = seed;
    opts.intensity = kCoherenceIntensity;
    const auto t0 = Clock::now();
    trace_ = build_workload("coherence", opts).entries;
    build_ms_ = seconds_since(t0) * 1e3;
  }

  /// One run of each kind: uniform, tornado, the coherence trace.
  int model_windows() const override { return kKinds; }

  /// One whole fast-model run; the kinds take turns.
  double window() override {
    const int kind = static_cast<int>(results_.size()) % kKinds;
    RunParams p;
    p.fidelity = Fidelity::Fast;
    p.seed = seed_;
    p.measure_packets = kMeasurePackets;
    RunResult r;
    {
      Span s(kFastRun);
      if (kind == 2) {
        r = run_trace_fast(cfg_, trace_, p);
      } else {
        p.pattern = kind == 0 ? TrafficPattern::UniformRandom
                              : TrafficPattern::Tornado;
        p.injection_rate = kind == 0 ? kUniformRate : kTornadoRate;
        r = run_synthetic_fast(cfg_, p);
      }
    }
    results_.push_back(r);
    return static_cast<double>(r.cycles);
  }

  void close_model(Outcome& out) override {
    double latency = 0, energy = 0, flits = 0;
    Digest d;
    for (int i = 0; i < kKinds; ++i) {
      const RunResult& r = results_[static_cast<size_t>(i)];
      latency += r.avg_latency;
      energy += r.total_energy_pj();
      flits += r.accepted_rate * cfg_.k * cfg_.k * static_cast<double>(r.cycles);
      d.add(r);
    }
    out.values["model_latency_cycles"] = latency / kKinds;
    out.values["model_energy_pj_per_flit"] = ratio(energy, flits);
    out.model_digest = d.value();
  }

  void finish(Outcome& out, bool traced) override {
    const char* names[kKinds] = {"fast64 uniform", "fast64 tornado",
                                 "fast64 coherence"};
    double packets = 0;
    for (size_t i = 0; i < results_.size(); ++i) {
      const RunResult& r = results_[i];
      packets += static_cast<double>(r.measured_packets);
      out.attempt();
      out.check(check_not_saturated(r.saturated, names[i % kKinds]));
      // A repeated run of one kind is the same simulation.
      Digest a, b;
      a.add(results_[i % kKinds]);
      b.add(r);
      out.check(check_same_digest(a.value(), b.value(), names[i % kKinds]));
    }

    // The 8x8 twin: the accuracy suite's uniform scenario, both fidelities.
    const NocConfig twin = NocConfig::hybrid_tdm_vc4(8);
    RunParams p;
    p.injection_rate = 0.15;
    p.measure_packets = 8000;
    p.seed = seed_;
    p.fidelity = Fidelity::Cycle;
    const RunResult cycle = run_synthetic(twin, p);
    p.fidelity = Fidelity::Fast;
    const RunResult fast = run_synthetic(twin, p);
    out.attempt();
    out.check(check_not_saturated(cycle.saturated || fast.saturated,
                                  "fast64 8x8 twin"));
    out.check(check_twin_accuracy(cycle, fast));

    auto& v = out.values;
    v["fastmodel.latency_err_pct"] = twin_latency_error(cycle, fast) * 100;
    v["fastmodel.energy_err_pct"] = twin_energy_error(cycle, fast) * 100;
    v["workloads.trace_entries"] = static_cast<double>(trace_.size());
    if (traced) {
      const SpanRecorder::Totals run =
          SpanRecorder::instance().totals(kFastRun);
      v["fastmodel.run_s"] = mean_self(kFastRun, 1e9);
      v["fastmodel.packets_per_s"] =
          ratio(packets * 1e9, static_cast<double>(run.self_ns));
      v["workloads.build_ms"] = build_ms_;
    }
  }

 private:
  static constexpr int kKinds = 3;
  static constexpr double kUniformRate = 0.02;
  static constexpr double kTornadoRate = 0.008;
  static constexpr double kCoherenceIntensity = 0.25;
  static constexpr std::uint64_t kMeasurePackets = 20000;

  std::uint64_t seed_;
  NocConfig cfg_;
  std::vector<TraceEntry> trace_;
  double build_ms_ = 0;
  std::vector<RunResult> results_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "loaded8", "hetero36", "mesh32", "sweep8", "fast64"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir) {
  if (name == "loaded8") return std::make_unique<SyntheticLoad>(kLoaded8, seed);
  if (name == "mesh32") return std::make_unique<SyntheticLoad>(kMesh32, seed);
  if (name == "hetero36") return std::make_unique<HeteroPair>(seed);
  if (name == "sweep8") return std::make_unique<Sweep8>(seed, workdir);
  if (name == "fast64") return std::make_unique<Fast64>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
