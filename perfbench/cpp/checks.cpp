#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/assert.hpp"
#include "common/config.hpp"
#include "sim/net_adapter.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/sweep_spec.hpp"

namespace perfbench {

using hybridnoc::EnergyCounters;
using hybridnoc::RunResult;

namespace {

/// One aggregate.tsv value as the orchestrator writes it.
std::string format_g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(const EnergyCounters& e) {
  for (const std::uint64_t v :
       {e.buffer_writes, e.buffer_reads, e.xbar_flits, e.vc_arbs, e.sw_arbs,
        e.link_flits, e.slot_table_reads, e.slot_table_writes,
        e.dlt_accesses, e.cs_latch_flits, e.cycles, e.vc_active_cycles,
        e.slot_entry_active_cycles, e.dlt_active_cycles,
        e.cs_misc_active_cycles, e.link_active_cycles}) {
    add(v);
  }
}

void Digest::add(const RunResult& r) {
  add(r.offered_rate);
  add(r.accepted_rate);
  add(r.avg_latency);
  add(r.p99_latency);
  add(static_cast<std::uint64_t>(r.saturated));
  add(r.measured_packets);
  add(r.cycles);
  add(r.energy);
  add(r.cs_flit_fraction);
  add(r.config_flit_fraction);
}

std::string check_not_aborted(bool aborted, const std::string& what) {
  return aborted ? what + ": aborted" : "";
}

std::string check_not_saturated(bool saturated, const std::string& what) {
  return saturated ? what + ": flagged saturated" : "";
}

std::string check_drained(bool drained, std::uint64_t sent,
                          std::uint64_t delivered, const std::string& what) {
  if (!drained) return what + ": drain did not reach quiescence";
  if (sent != delivered) {
    return what + ": delivered " + std::to_string(delivered) + " of " +
           std::to_string(sent) + " sent after drain";
  }
  return "";
}

std::string check_audit_clean(int broken_windows, int orphan_entries,
                              const std::string& what) {
  if (broken_windows == 0 && orphan_entries == 0) return "";
  return what + ": reservation audit found " +
         std::to_string(broken_windows) + " broken windows, " +
         std::to_string(orphan_entries) + " orphan entries";
}

std::string check_same_digest(std::uint64_t a, std::uint64_t b,
                              const std::string& what) {
  return a == b ? "" : what + ": simulated-statistics digests differ";
}

std::string check_no_quarantine(int quarantined) {
  return quarantined == 0
             ? ""
             : "sweep: " + std::to_string(quarantined) + " points quarantined";
}

std::string check_same_bytes(const std::string& a, const std::string& b,
                             const std::string& what) {
  return a == b ? "" : what + ": not byte-identical";
}

std::string check_point_matches(const RunResult& direct,
                                const RunResult& swept,
                                const std::string& aggregate,
                                const std::string& label) {
  const std::string what = "sweep point " + label;
  Digest a, b;
  a.add(direct);
  b.add(swept);
  if (a.value() != b.value()) {
    return what + ": direct driver run differs from the sweep result";
  }
  // The aggregate row after the label and hash columns.
  const std::string expected =
      "ok\t" + format_g17(direct.offered_rate) + "\t" +
      format_g17(direct.accepted_rate) + "\t" +
      format_g17(direct.avg_latency) + "\t" +
      format_g17(direct.p99_latency) + "\t" + (direct.saturated ? "1" : "0") +
      "\t" + std::to_string(direct.measured_packets) + "\t" +
      std::to_string(direct.cycles) + "\t" +
      format_g17(direct.total_energy_pj()) + "\t" +
      format_g17(direct.cs_flit_fraction) + "\t" +
      format_g17(direct.config_flit_fraction);
  std::istringstream in(aggregate);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(label + "\t", 0) != 0) continue;
    const size_t hash_end = line.find('\t', label.size() + 1);
    if (hash_end != std::string::npos &&
        line.compare(hash_end + 1, std::string::npos, expected) == 0) {
      return "";
    }
    return what + ": aggregate.tsv row differs from the direct driver run";
  }
  return what + ": no aggregate.tsv row";
}

double twin_latency_error(const RunResult& cycle, const RunResult& fast) {
  return (fast.avg_latency - cycle.avg_latency) / cycle.avg_latency;
}

double twin_energy_error(const RunResult& cycle, const RunResult& fast) {
  const double c = cycle.total_energy_pj() /
                   static_cast<double>(cycle.measured_packets);
  const double f =
      fast.total_energy_pj() / static_cast<double>(fast.measured_packets);
  return (f - c) / c;
}

std::string check_twin_accuracy(const RunResult& cycle,
                                const RunResult& fast) {
  if (cycle.measured_packets == 0 || fast.measured_packets == 0) {
    return "fast-model twin: no packets measured";
  }
  const double lat = twin_latency_error(cycle, fast);
  const double energy = twin_energy_error(cycle, fast);
  if (!(std::abs(lat) <= 0.10)) {
    return "fast-model twin: latency error " + format_g17(lat * 100) +
           " % outside 10 %";
  }
  if (!(std::abs(energy) <= 0.05)) {
    return "fast-model twin: energy error " + format_g17(energy * 100) +
           " % outside 5 %";
  }
  return "";
}

namespace {

int expect(const char* name, const std::string& good,
           const std::string& corrupted) {
  const bool ok = good.empty() && !corrupted.empty();
  std::printf("%-22s %s  (good: %s; corrupted: %s)\n", name,
              ok ? "ok  " : "FAIL", good.empty() ? "passes" : good.c_str(),
              corrupted.empty() ? "DID NOT FIRE" : corrupted.c_str());
  return ok ? 0 : 1;
}

RunResult sample_result() {
  RunResult r;
  r.offered_rate = 0.1;
  r.accepted_rate = 0.0998;
  r.avg_latency = 31.25;
  r.p99_latency = 72.5;
  r.measured_packets = 2000;
  r.cycles = 5000;
  r.energy.buffer_writes = 123456;
  r.energy.link_flits = 98765;
  r.energy.cycles = 5000;
  r.cs_flit_fraction = 0.125;
  return r;
}

}  // namespace

int run_selftest() {
  int bad = 0;

  // A real simulator check failure: a 1x1 mesh fails NocConfig::validate.
  const auto aborts = [](int k) {
    hybridnoc::ScopedCheckThrows throws;
    try {
      hybridnoc::NocConfig cfg = hybridnoc::NocConfig::hybrid_tdm_vc4(8);
      cfg.k = k;
      hybridnoc::make_network(cfg);
      return false;
    } catch (const hybridnoc::CheckFailure&) {
      return true;
    }
  };
  bad += expect("aborted", check_not_aborted(aborts(4), "run"),
                check_not_aborted(aborts(1), "run"));

  bad += expect("saturated", check_not_saturated(false, "run"),
                check_not_saturated(true, "run"));

  bad += expect("drained", check_drained(true, 500, 500, "run"),
                check_drained(true, 500, 499, "run"));
  bad += expect("drain-quiescent", check_drained(true, 500, 500, "run"),
                check_drained(false, 500, 500, "run"));

  bad += expect("audit", check_audit_clean(0, 0, "run"),
                check_audit_clean(0, 1, "run"));

  const RunResult r = sample_result();
  RunResult off_by_one = r;
  off_by_one.energy.buffer_reads += 1;
  Digest da, db, dc;
  da.add(r);
  db.add(r);
  dc.add(off_by_one);
  bad += expect("digest", check_same_digest(da.value(), db.value(), "twin"),
                check_same_digest(da.value(), dc.value(), "twin"));

  bad += expect("quarantine", check_no_quarantine(0), check_no_quarantine(1));

  // A real aggregate from the orchestrator's formatter, one point.
  hybridnoc::sweep::SweepSpec spec;
  hybridnoc::sweep::SpecError err;
  const bool parsed = hybridnoc::sweep::parse_sweep_spec(
      "set preset = hybrid_tdm_vc4\nset k = 4\nsweep rate = 0.1\n", &spec,
      &err);
  if (!parsed || spec.points.size() != 1) {
    std::printf("selftest: spec did not parse: %s\n", err.to_string().c_str());
    return bad + 1;
  }
  hybridnoc::sweep::ConfigOutcome outcome;
  outcome.label = spec.points[0].label;
  outcome.hash = spec.points[0].hash;
  outcome.result = r;
  outcome.ok = true;
  const std::string aggregate =
      hybridnoc::sweep::format_aggregate(spec, {outcome});
  std::string flipped = aggregate;
  flipped[flipped.size() - 2] ^= 1;
  bad += expect("aggregate-bytes",
                check_same_bytes(aggregate, aggregate, "cached re-run"),
                check_same_bytes(aggregate, flipped, "cached re-run"));

  RunResult nudged = r;
  nudged.avg_latency = std::nextafter(r.avg_latency, 1e9);
  bad += expect("point-vs-sweep",
                check_point_matches(r, r, aggregate, outcome.label),
                check_point_matches(nudged, r, aggregate, outcome.label));
  bad += expect("point-vs-aggregate",
                check_point_matches(r, r, aggregate, outcome.label),
                check_point_matches(r, r, flipped, outcome.label));

  RunResult fast = r;
  fast.avg_latency = r.avg_latency * 1.05;
  RunResult slow_fast = r;
  slow_fast.avg_latency = r.avg_latency * 1.11;
  RunResult hungry_fast = r;
  hungry_fast.energy.buffer_writes = r.energy.buffer_writes * 2;
  bad += expect("twin-latency", check_twin_accuracy(r, fast),
                check_twin_accuracy(r, slow_fast));
  bad += expect("twin-energy", check_twin_accuracy(r, fast),
                check_twin_accuracy(r, hungry_fast));

  std::printf("selftest: %s\n", bad == 0 ? "every check fires" : "FAILED");
  return bad;
}

}  // namespace perfbench
