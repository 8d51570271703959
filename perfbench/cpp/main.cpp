// perfbench — the repository benchmark's measuring binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out RESULT.json [--spans SPANS.json] [--workdir DIR]
//   perfbench --selftest
//
// Untraced (--trace 0): builds the workload five times (setup_s is the
// median), then runs timed windows for S seconds and checks the outputs.
// Traced (--trace 1): an untraced pass for S/2 seconds, then a traced pass
// over the same number of windows; the two must agree on the simulated
// results, and their speed ratio is the tracing overhead. Short traced
// passes of the other workloads then fill in the per-layer numbers of the
// layers this workload bypasses. perfbench/run.py builds and drives this
// binary; see perfbench/BENCH.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "checks.hpp"
#include "common/assert.hpp"
#include "reference.hpp"
#include "span.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr int kSetupRepeats = 5;
/// How often a run times the host-speed reference kernel.
constexpr double kReferenceEveryS = 0.25;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string spans;
  std::string workdir = ".bench_work";
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out FILE [--spans FILE] [--workdir DIR]\n"
               "       perfbench --selftest\n");
  std::exit(2);
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

HostReference& host_reference() {
  static HostReference ref;
  return ref;
}

/// Timed windows until `seconds` have passed and the model windows ran;
/// exactly max(`exact`, model windows) windows when `exact` is > 0. The
/// host-speed reference is timed between windows, off the clock.
void timed_loop(Workload& w, Outcome& out, double seconds, int exact) {
  const int model = w.model_windows();
  const auto start = Clock::now();
  auto last_reference = start;
  for (int n = 0;; ++n) {
    if (exact > 0 ? n >= std::max(exact, model)
                  : n >= model && seconds_since(start) >= seconds) {
      break;
    }
    w.before_window(out);
    if (n == 0 || seconds_since(last_reference) >= kReferenceEveryS) {
      host_reference().sample();
      last_reference = Clock::now();
    }
    const auto t0 = Clock::now();
    const double cycles = w.window();
    const double dt = seconds_since(t0);
    out.window_ms.push_back(dt * 1e3);
    out.window_cycles_per_s.push_back(cycles / dt);
    if (n + 1 == model) w.close_model(out);
  }
}

/// Run `body`, turning a simulator check failure (or any exception) into
/// a failed operation instead of a dead process.
template <typename Body>
void guarded(Outcome& out, const std::string& what, Body&& body) {
  hybridnoc::ScopedCheckThrows throws;
  try {
    body();
  } catch (const std::exception& e) {
    out.attempt();
    out.check(check_not_aborted(true, what) + ": " + e.what());
  }
}

std::unique_ptr<Workload> build(const Options& o, const std::string& name,
                                Outcome& out) {
  const auto t0 = Clock::now();
  auto w = make_workload(name, o.seed, o.workdir);
  out.setup_s.push_back(seconds_since(t0));
  host_reference().sample();
  return w;
}

void merge_missing(Outcome& into, const Outcome& from) {
  for (const auto& [k, v] : from.values) into.values.emplace(k, v);
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.failures.insert(into.failures.end(), from.failures.begin(),
                       from.failures.end());
}

/// Untraced run: the end-to-end numbers.
Outcome run_untraced(const Options& o) {
  Outcome out;
  std::unique_ptr<Workload> w;
  guarded(out, o.workload + " setup", [&] {
    for (int r = 0; r < kSetupRepeats; ++r) {
      w.reset();
      w = build(o, o.workload, out);
    }
  });
  if (!w) return out;
  guarded(out, o.workload + " windows", [&] {
    timed_loop(*w, out, o.seconds, 0);
  });
  guarded(out, o.workload + " checks", [&] { w->finish(out, false); });
  return out;
}

/// Traced run: per-layer numbers. Returns the untraced pass (for the
/// end-to-end fields) with the traced results merged in.
Outcome run_traced(const Options& o, std::string* spans_json) {
  SpanRecorder& rec = SpanRecorder::instance();
  Outcome plain, traced;
  guarded(plain, o.workload, [&] {
    auto w = build(o, o.workload, plain);
    timed_loop(*w, plain, o.seconds / 2, 0);
  });
  rec.enable(true);
  guarded(traced, o.workload, [&] {
    auto w = build(o, o.workload, traced);
    rec.reset();
    timed_loop(*w, traced, 0,
               static_cast<int>(std::max<size_t>(plain.window_ms.size(), 1)));
    w->finish(traced, true);
  });
  std::ostringstream os;
  rec.write_json(os);
  *spans_json = os.str();

  traced.attempt();
  traced.check(check_same_digest(plain.model_digest, traced.model_digest,
                                 o.workload + " untraced vs traced"));
  const double plain_cps = median(plain.window_cycles_per_s);
  const double traced_cps = median(traced.window_cycles_per_s);
  traced.values["trace.overhead_pct"] = (plain_cps / traced_cps - 1.0) * 100;

  // hetero36 first: it is where the tdm.* and power.* numbers move, so the
  // runs of other workloads borrow those from it rather than from loaded8.
  for (const char* other :
       {"hetero36", "loaded8", "mesh32", "sweep8", "fast64"}) {
    if (other == o.workload) continue;
    Outcome c;
    guarded(c, other, [&] {
      auto w = build(o, other, c);
      rec.reset();
      timed_loop(*w, c, 0, 0);
      w->finish(c, true);
    });
    merge_missing(traced, c);
  }
  rec.enable(false);

  // The end-to-end fields come from the untraced pass; the values and
  // every check, its own included, from the traced side.
  merge_missing(traced, plain);
  plain.values = traced.values;
  plain.attempted = traced.attempted;
  plain.failed = traced.failed;
  plain.failures = traced.failures;
  return plain;
}

/// Highest whole percentile (nearest rank) with at least ten windows
/// beyond it; the median when fewer than 20 windows leave no such tail.
struct Tail {
  int percentile = 50;
  int beyond = 0;
  double value = 0;
};

Tail window_tail(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const int n = static_cast<int>(v.size());
  for (int p = 99; p > 50; --p) {
    const int rank = static_cast<int>(std::ceil(p / 100.0 * n));
    if (n - rank >= 10) {
      t.percentile = p;
      t.beyond = n - rank;
      t.value = v[static_cast<size_t>(rank - 1)];
      return t;
    }
  }
  t.beyond = n / 2;
  t.value = median(v);
  return t;
}

/// High-water resident set of this process in MiB. VmHWM restarts at exec,
/// unlike getrusage's ru_maxrss, which keeps the parent's peak across it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t a = s.find_first_not_of(' ');
    const size_t b = s.find_last_not_of(' ');
    if (a != std::string::npos) return s.substr(a, b - a + 1);
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_result(const Options& o, Outcome& out) {
  auto& v = out.values;
  const Tail tail = window_tail(out.window_ms);
  // Host times at the reference host speed (see reference.hpp); the raw
  // measurements are kept beside them.
  const double reference_ms = median(host_reference().samples());
  const double scale = HostReference::kNominalMs / reference_ms;
  v["raw.sim_cycles_per_s"] = median(out.window_cycles_per_s);
  v["raw.window_ms_p50"] = median(out.window_ms);
  v["raw.window_ms_tail"] = tail.value;
  v["raw.setup_s"] = median(out.setup_s);
  v["host.reference_ms"] = reference_ms;
  v["sim_cycles_per_s"] = v["raw.sim_cycles_per_s"] / scale;
  v["window_ms_p50"] = v["raw.window_ms_p50"] * scale;
  v["window_ms_tail"] = v["raw.window_ms_tail"] * scale;
  v["setup_s"] = v["raw.setup_s"] * scale;
  v["peak_rss_mb"] = peak_rss_mb();
  v["failed_frac"] = out.attempted > 0
                         ? static_cast<double>(out.failed) / out.attempted
                         : 1.0;

  std::ostringstream js;
  js << "{\n  \"workload\": " << json_string(o.workload)
     << ",\n  \"seed\": " << o.seed << ",\n  \"trace\": " << (o.trace ? 1 : 0)
     << ",\n  \"seconds\": " << json_number(o.seconds)
     << ",\n  \"fingerprint\": {\"cpu_model\": " << json_string(cpu_model())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_string(
#if defined(__clang__)
                                 std::string("clang ") + __clang_version__
#elif defined(__GNUC__)
                                 std::string("gcc ") + __VERSION__
#else
                                 "unknown"
#endif
                                 )
     << "},\n  \"windows\": " << out.window_ms.size()
     << ",\n  \"tail_percentile\": " << tail.percentile
     << ",\n  \"tail_beyond\": " << tail.beyond << ",\n  \"setup_s_all\": [";
  for (size_t i = 0; i < out.setup_s.size(); ++i) {
    js << (i ? ", " : "") << json_number(out.setup_s[i]);
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(out.model_digest));
  js << "],\n  \"window_ms_all\": [";
  for (size_t i = 0; i < out.window_ms.size(); ++i) {
    js << (i ? ", " : "") << json_number(out.window_ms[i]);
  }
  js << "],\n  \"model_digest\": \"" << digest << "\",\n  \"attempted\": "
     << out.attempted << ",\n  \"failed\": " << out.failed
     << ",\n  \"failures\": [";
  for (size_t i = 0; i < out.failures.size(); ++i) {
    js << (i ? ", " : "") << json_string(out.failures[i]);
  }
  js << "],\n  \"values\": {";
  bool first = true;
  for (const auto& [k, val] : v) {
    js << (first ? "\n    " : ",\n    ") << json_string(k) << ": "
       << json_number(val);
    first = false;
  }
  js << "\n  }\n}\n";

  std::ofstream f(o.out);
  f << js.str();
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.out.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return run_selftest() == 0 ? 0 : 1;
    if (i + 1 >= argc) usage();
    const char* val = argv[++i];
    if (a == "--workload") {
      o.workload = val;
    } else if (a == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(val);
    } else if (a == "--trace") {
      o.trace = std::atoi(val) != 0;
    } else if (a == "--out") {
      o.out = val;
    } else if (a == "--spans") {
      o.spans = val;
    } else if (a == "--workdir") {
      o.workdir = val;
    } else {
      usage();
    }
  }
  const auto& names = workload_names();
  if (o.out.empty() || o.seconds < 0 ||
      std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage();
  }

  Outcome out;
  if (o.trace) {
    std::string spans;
    out = run_traced(o, &spans);
    if (!o.spans.empty()) std::ofstream(o.spans) << spans << "\n";
  } else {
    out = run_untraced(o);
  }
  write_result(o, out);
  return 0;
}
