// Output checks that define the benchmark's failed operations.
//
// Every check is a pure function of what a run produced and returns the
// reason it fails, or an empty string when it passes. The workloads call
// them on live results; run_selftest() calls each on a good and on a
// deliberately corrupted input and asserts it passes and fires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/run_types.hpp"

namespace perfbench {

/// FNV-1a over 64-bit words: the simulated-statistics digest two runs of
/// the same inputs must agree on.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const hybridnoc::EnergyCounters& e);
  void add(const hybridnoc::RunResult& r);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// The run raised a simulator check (HN_CHECK under ScopedCheckThrows).
std::string check_not_aborted(bool aborted, const std::string& what);
/// The run was flagged saturated.
std::string check_not_saturated(bool saturated, const std::string& what);
/// After a final drain: the drain reached quiescence and every data packet
/// sent was delivered.
std::string check_drained(bool drained, std::uint64_t sent,
                          std::uint64_t delivered, const std::string& what);
/// audit_reservations() found no broken windows or orphan entries.
std::string check_audit_clean(int broken_windows, int orphan_entries,
                              const std::string& what);
/// Two runs of the same inputs produced the same simulated statistics.
std::string check_same_digest(std::uint64_t a, std::uint64_t b,
                              const std::string& what);
/// The sweep left no point quarantined.
std::string check_no_quarantine(int quarantined);
/// A cached re-run wrote a byte-identical aggregate.tsv.
std::string check_same_bytes(const std::string& a, const std::string& b,
                             const std::string& what);
/// A sweep point recomputed directly through the driver matches the
/// orchestrator's result and its aggregate.tsv row (label, hash, fields).
std::string check_point_matches(const hybridnoc::RunResult& direct,
                                const hybridnoc::RunResult& swept,
                                const std::string& aggregate,
                                const std::string& label);
/// Fast-model 8x8 twin within the accuracy suite's bounds: mean latency
/// within 10 %, energy per measured packet within 5 % of the cycle core.
std::string check_twin_accuracy(const hybridnoc::RunResult& cycle,
                                const hybridnoc::RunResult& fast);

/// Relative errors (fast - cycle) / cycle used by check_twin_accuracy.
double twin_latency_error(const hybridnoc::RunResult& cycle,
                          const hybridnoc::RunResult& fast);
double twin_energy_error(const hybridnoc::RunResult& cycle,
                         const hybridnoc::RunResult& fast);

/// Runs every check on a good and a corrupted input. Prints one line per
/// check and returns the number of checks that misbehaved.
int run_selftest();

}  // namespace perfbench
