// profile_tick — per-subsystem cycle-cost profile of the cycle core, and
// the steady-state speed of the transfer-level fast model.
//
//   profile_tick [--k 32] [--arch packet|tdm] [--inject 0.05] [--cycles 20000]
//                [--threads 1] [--watchdog 1024] [--fast-forward]
//   profile_tick --fidelity fast [--k 8] [--arch packet|tdm] [--inject 0.3]
//                [--reps 5]
//
// Runs seeded uniform-random injection against a k x k mesh and prints the
// Network::tick_profile() counters — tick dispatches per subsystem, watchdog
// sweeps, fast-forward jumps — alongside wall-clock cycles/sec. Use it to
// answer "where do the cycles go at this config?" before and after a
// scheduler or engine change:
//
//   tools/profile_tick --k 64 --inject 0            # idle floor
//   tools/profile_tick --k 64 --inject 0.005        # sparse regime
//   tools/profile_tick --k 64 --inject 0.1 --threads 4
//
// Dispatches/cycle is the headline number: at --inject 0 it should be ~0,
// against the 2*k*k of a sweep that ticks every component every cycle —
// the O(nodes) per-cycle cost the run-list scheduler eliminates.
// ns/dispatch (wall time over total dispatches) is its complement: it moves
// when a router or NI tick gets cheaper while the dispatch count stays the
// same. Peak RSS (and that peak spread over the nodes) shows a change in
// per-node memory layout.
//
// --fidelity fast times run_synthetic_fast instead, with the speed gate's
// parameters (bench_micro_simspeed's BM_FastModelRun: uniform traffic, no
// warmup, 400000 measured packets, seed 1; defaults hybrid-TDM 8x8 at 0.3),
// and prints simulated cycles/s per repetition, their median and peak RSS:
//
//   tools/profile_tick --fidelity fast --reps 10            # the 8x8 gate row
//   tools/profile_tick --fidelity fast --k 64 --inject 0.02 # the 64x64 row
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/config.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "fastmodel/fast_model.hpp"
#include "noc/network.hpp"
#include "tdm/hybrid_network.hpp"

using namespace hybridnoc;

namespace {

/// k, arch and inject start unset (0, "", < 0): their defaults depend on
/// the fidelity.
struct Options {
  bool fast = false;
  int k = 0;
  std::string arch;
  double inject = -1.0;
  std::uint64_t cycles = 20000;
  int threads = 1;
  std::uint64_t watchdog = 0;
  bool fast_forward = false;
  int reps = 0;
  bool cycle_only = false;  ///< a cycle-core flag was given
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: profile_tick [--k N] [--arch packet|tdm] [--inject RATE]\n"
      "                    [--cycles N] [--threads N]\n"
      "                    [--watchdog STALL_CYCLES] [--fast-forward]\n"
      "       profile_tick --fidelity fast [--k N] [--arch packet|tdm]\n"
      "                    [--inject RATE] [--reps N]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--fidelity") {
      const std::string f = next();
      if (f != "cycle" && f != "fast") usage();
      o.fast = f == "fast";
    } else if (a == "--reps") {
      o.reps = std::atoi(next());
      if (o.reps < 1) usage();
    } else if (a == "--k") {
      o.k = std::atoi(next());
    } else if (a == "--arch") {
      o.arch = next();
    } else if (a == "--inject") {
      o.inject = std::atof(next());
    } else if (a == "--cycles") {
      o.cycles = std::strtoull(next(), nullptr, 10);
      o.cycle_only = true;
    } else if (a == "--threads") {
      o.threads = std::atoi(next());
      o.cycle_only = true;
    } else if (a == "--watchdog") {
      o.watchdog = std::strtoull(next(), nullptr, 10);
      o.cycle_only = true;
    } else if (a == "--fast-forward") {
      o.fast_forward = true;
      o.cycle_only = true;
    } else {
      usage();
    }
  }
  if (o.fast ? o.cycle_only : o.reps != 0) usage();
  if (o.k == 0) o.k = o.fast ? 8 : 32;
  if (o.arch.empty()) o.arch = o.fast ? "tdm" : "packet";
  if (o.inject < 0.0) o.inject = o.fast ? 0.3 : 0.05;
  if (o.reps == 0) o.reps = 5;
  if (o.k < 2 || o.cycles == 0 || o.threads < 1) usage();
  if (o.arch != "packet" && o.arch != "tdm") usage();
  return o;
}

/// Peak resident set of this process in KiB (Linux reports ru_maxrss in
/// KiB), so it covers construction and every structure that grew.
double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

/// --fidelity fast: time `reps` whole fast-model runs of the speed gate's
/// shape (see the file comment).
void run_fast(const NocConfig& cfg, const Options& o) {
  RunParams p;
  p.pattern = TrafficPattern::UniformRandom;
  p.injection_rate = o.inject;
  p.warmup_packets = 0;
  p.warmup_min_cycles = 0;
  p.measure_packets = 400000;
  p.seed = 1;
  p.fidelity = Fidelity::Fast;
  std::printf("fast model           %s %dx%d, uniform %.3g flits/node/cycle\n",
              o.arch.c_str(), o.k, o.k, o.inject);
  std::vector<double> rates;
  for (int rep = 0; rep < o.reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = run_synthetic_fast(cfg, p);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    rates.push_back(secs > 0 ? static_cast<double>(r.cycles) / secs : 0.0);
    std::printf("rep %-3d              %llu cycles in %.3f s  (%.0f cycles/s)%s\n",
                rep + 1, static_cast<unsigned long long>(r.cycles), secs,
                rates.back(), r.saturated ? "  saturated" : "");
  }
  std::sort(rates.begin(), rates.end());
  const size_t m = rates.size() / 2;
  const double median =
      rates.size() % 2 ? rates[m] : 0.5 * (rates[m - 1] + rates[m]);
  std::printf("median               %.0f cycles/s over %d reps\n", median,
              o.reps);
  std::printf("peak rss             %.1f MB\n", peak_rss_kb() / 1024.0);
}

template <typename Net>
void run(Net& net, const Options& o) {
  Rng rng(1);
  PacketId id = 1;
  const auto t0 = std::chrono::steady_clock::now();
  if (o.inject <= 0.0 && o.fast_forward) {
    net.fast_forward(o.cycles);
  } else {
    while (net.now() < static_cast<Cycle>(o.cycles)) {
      if (o.inject > 0.0) {
        for (NodeId s = 0; s < net.num_nodes(); ++s) {
          if (net.ni(s).inject_queue_depth() < 4 && rng.bernoulli(o.inject)) {
            auto p = make_packet();
            p->id = id++;
            p->src = s;
            p->dst = static_cast<NodeId>(rng.uniform_int(net.num_nodes()));
            if (p->dst == s) continue;
            p->num_flits = 5;
            net.ni(s).send(std::move(p), net.now());
          }
        }
      }
      net.tick();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  const TickProfile p = net.tick_profile();
  const std::uint64_t nodes =
      static_cast<std::uint64_t>(net.num_nodes());
  const std::uint64_t dispatches = p.ni_ticks + p.router_ticks;
  const std::uint64_t wall_cycles = p.cycles + p.ff_skipped_cycles;
  std::printf("mesh                 %dx%d (%llu nodes)\n", o.k, o.k,
              static_cast<unsigned long long>(nodes));
  std::printf("simulated cycles     %llu (%llu ticked, %llu fast-forwarded)\n",
              static_cast<unsigned long long>(wall_cycles),
              static_cast<unsigned long long>(p.cycles),
              static_cast<unsigned long long>(p.ff_skipped_cycles));
  std::printf("wall time            %.3f s  (%.0f cycles/s)\n", secs,
              secs > 0 ? static_cast<double>(wall_cycles) / secs : 0.0);
  std::printf("ni ticks             %llu\n",
              static_cast<unsigned long long>(p.ni_ticks));
  std::printf("router ticks         %llu\n",
              static_cast<unsigned long long>(p.router_ticks));
  std::printf("dispatches/cycle     %.2f\n",
              p.cycles ? static_cast<double>(dispatches) /
                             static_cast<double>(p.cycles)
                       : 0.0);
  // Wall time per NI or router tick (injection loop included): the number a
  // router- or NI-level change moves while dispatches/cycle stays put.
  std::printf("ns/dispatch          %.1f\n",
              dispatches ? secs * 1e9 / static_cast<double>(dispatches) : 0.0);
  std::printf("watchdog sweeps      %llu\n",
              static_cast<unsigned long long>(p.watchdog_sweeps));
  std::printf("fast-forward jumps   %llu\n",
              static_cast<unsigned long long>(p.ff_jumps));
  // Allocation / refcount telemetry: what the loaded path still pays the
  // allocator and the packet anchor per simulated cycle.
  const auto per_cycle = [&](std::uint64_t n) {
    return p.cycles ? static_cast<double>(n) / static_cast<double>(p.cycles)
                    : 0.0;
  };
  std::printf("packets minted       %llu  (%.3f /cycle)\n",
              static_cast<unsigned long long>(p.packets_minted),
              per_cycle(p.packets_minted));
  std::printf("pool hits            %llu  (%.3f /cycle)\n",
              static_cast<unsigned long long>(p.pool_hits),
              per_cycle(p.pool_hits));
  std::printf("pool misses          %llu  (%.3f /cycle)\n",
              static_cast<unsigned long long>(p.pool_misses),
              per_cycle(p.pool_misses));
  std::printf("flight acquires      %llu  (%.3f /cycle)\n",
              static_cast<unsigned long long>(p.flight_acquires),
              per_cycle(p.flight_acquires));
  std::printf("flight releases      %llu  (%.3f /cycle)\n",
              static_cast<unsigned long long>(p.flight_releases),
              per_cycle(p.flight_releases));
  const double peak_kb = peak_rss_kb();
  std::printf("peak rss             %.1f MB  (%.1f KB/node)\n", peak_kb / 1024.0,
              peak_kb / static_cast<double>(nodes));
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  NocConfig cfg = o.arch == "tdm" ? NocConfig::hybrid_tdm_vc4(o.k)
                                  : NocConfig::packet_vc4(o.k);
  if (o.fast) {
    run_fast(cfg, o);
    return 0;
  }
  cfg.tick_threads = o.threads;
  cfg.watchdog_stall_cycles = o.watchdog;
  if (o.arch == "tdm") {
    HybridNetwork net(cfg);
    run(net, o);
  } else {
    Network net(cfg);
    run(net, o);
  }
  return 0;
}
