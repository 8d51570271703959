// The benchmark's five workloads and the harness that times them.
//
// A workload is built (construction, trace generation, untimed warmup),
// then run as a sequence of timed windows. Each window is a fixed amount
// of simulated work, so windows compare across runs. The first
// model_windows() windows also define the simulated ("model") results and
// their digest: those are a pure function of the seed. After the timed
// windows, finish() runs the output checks and collects the per-layer
// numbers. See perfbench/BENCH.md for why each workload exists.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Everything one run measured or checked.
struct Outcome {
  std::vector<double> setup_s;    ///< one per repeated setup
  std::vector<double> window_ms;  ///< one per timed window
  std::vector<double> window_cycles_per_s;  ///< simulated cycles / host s
  std::uint64_t model_digest = 0;
  int attempted = 0;  ///< simulation runs and sweep points checked
  int failed = 0;
  std::vector<std::string> failures;
  /// Named results: model metrics, per-layer metrics, workload extras.
  std::map<std::string, double> values;

  /// Count `n` checked operations.
  void attempt(int n = 1) { attempted += n; }
  /// Record a check result; an empty reason is a pass.
  void check(const std::string& reason) {
    if (reason.empty()) return;
    ++failed;
    failures.push_back(reason);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Windows that define the model results; always completed.
  virtual int model_windows() const = 0;
  /// Untimed work before each window (rebuilding a finished evaluation).
  virtual void before_window(Outcome& out) { (void)out; }
  /// One timed window. Returns the simulated cycles it covered.
  virtual double window() = 0;
  /// Called once, after the model_windows()-th window.
  virtual void close_model(Outcome& out) = 0;
  /// Output checks and per-layer numbers; `traced` adds the span-derived
  /// ones and the extra measurements only the traced run makes.
  virtual void finish(Outcome& out, bool traced) = 0;
};

const std::vector<std::string>& workload_names();

/// Build (set up) one workload; throws std::invalid_argument on an unknown
/// name. `workdir` is where sweep8 writes its sweep directories.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir);

}  // namespace perfbench
