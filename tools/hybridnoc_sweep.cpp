// Crash-safe sweep front end.
//
//   hybridnoc_sweep expand --spec FILE
//       Print the expanded points (label + content hash) without running.
//
//   hybridnoc_sweep run --spec FILE --out DIR [options]
//       Run (or resume) the sweep. Results land in DIR/results/, warmup
//       checkpoints in DIR/checkpoints/, progress in DIR/journal, and the
//       deterministic aggregate in DIR/aggregate.tsv. Rerunning after any
//       interruption — kill -9 included — resumes from the journal and
//       produces a byte-identical aggregate. DIR/timings.tsv holds the host
//       wall time and simulated cycles/s of each point this run computed.
//
// Exit codes: 0 = every point completed, 3 = completed with quarantined
// points (see the degradation report on stdout), 2 = usage/spec/
// environment error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "sweep/orchestrator.hpp"
#include "sweep/sweep_spec.hpp"

namespace {

using hybridnoc::sweep::SpecError;
using hybridnoc::sweep::SweepOptions;
using hybridnoc::sweep::SweepReport;
using hybridnoc::sweep::SweepSpec;

void usage() {
  std::fprintf(
      stderr,
      "usage: hybridnoc_sweep expand --spec FILE\n"
      "       hybridnoc_sweep run --spec FILE --out DIR [options]\n"
      "options:\n"
      "  --workers N        worker threads (default 4)\n"
      "  --max-attempts N   attempts before quarantine (default 3)\n"
      "  --timeout-ms T     per-point wall clock; 0 = none (default)\n"
      "  --backoff-base-ms B --backoff-cap-ms C   retry backoff envelope\n"
      "  --no-share-warmup  disable warmup-checkpoint sharing\n"
      "  --fresh            ignore + truncate an existing journal\n"
      "  --fault-seed S --fault-throw P --fault-hang P --fault-torn P\n"
      "                     deterministic fault-injection harness (tests)\n"
      "known spec keys: %s\n",
      hybridnoc::sweep::known_spec_keys().c_str());
}

bool parse_u64_arg(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_double_arg(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string mode = argv[1];
  std::string spec_path, out_dir;
  SweepOptions opt;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--spec") {
      spec_path = need_value("--spec");
    } else if (a == "--out") {
      out_dir = need_value("--out");
    } else if (a == "--workers") {
      opt.workers = std::atoi(need_value("--workers"));
    } else if (a == "--max-attempts") {
      opt.max_attempts = std::atoi(need_value("--max-attempts"));
    } else if (a == "--timeout-ms") {
      if (!parse_u64_arg(need_value("--timeout-ms"), &opt.timeout_ms)) {
        std::fprintf(stderr, "error: bad --timeout-ms\n");
        return 2;
      }
    } else if (a == "--backoff-base-ms") {
      if (!parse_u64_arg(need_value("--backoff-base-ms"),
                         &opt.backoff_base_ms)) {
        std::fprintf(stderr, "error: bad --backoff-base-ms\n");
        return 2;
      }
    } else if (a == "--backoff-cap-ms") {
      if (!parse_u64_arg(need_value("--backoff-cap-ms"),
                         &opt.backoff_cap_ms)) {
        std::fprintf(stderr, "error: bad --backoff-cap-ms\n");
        return 2;
      }
    } else if (a == "--no-share-warmup") {
      opt.share_warmup = false;
    } else if (a == "--fresh") {
      opt.resume = false;
    } else if (a == "--fault-seed") {
      opt.faults.enabled = true;
      if (!parse_u64_arg(need_value("--fault-seed"), &opt.faults.seed)) {
        std::fprintf(stderr, "error: bad --fault-seed\n");
        return 2;
      }
    } else if (a == "--fault-throw") {
      opt.faults.enabled = true;
      if (!parse_double_arg(need_value("--fault-throw"),
                            &opt.faults.throw_prob)) {
        std::fprintf(stderr, "error: bad --fault-throw\n");
        return 2;
      }
    } else if (a == "--fault-hang") {
      opt.faults.enabled = true;
      if (!parse_double_arg(need_value("--fault-hang"),
                            &opt.faults.hang_prob)) {
        std::fprintf(stderr, "error: bad --fault-hang\n");
        return 2;
      }
    } else if (a == "--fault-torn") {
      opt.faults.enabled = true;
      if (!parse_double_arg(need_value("--fault-torn"),
                            &opt.faults.torn_write_prob)) {
        std::fprintf(stderr, "error: bad --fault-torn\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", a.c_str());
      usage();
      return 2;
    }
  }

  if (spec_path.empty()) {
    std::fprintf(stderr, "error: --spec is required\n");
    usage();
    return 2;
  }

  SweepSpec spec;
  SpecError serr;
  if (!hybridnoc::sweep::load_sweep_spec(spec_path, &spec, &serr)) {
    std::fprintf(stderr, "error: %s\n", serr.to_string().c_str());
    return 2;
  }

  if (mode == "expand") {
    std::printf("# sweep %s: %zu points\n", spec.name.c_str(),
                spec.points.size());
    for (const auto& pt : spec.points) {
      std::printf("%016llx  %s\n",
                  static_cast<unsigned long long>(pt.hash),
                  pt.label.c_str());
    }
    return 0;
  }
  if (mode != "run") {
    std::fprintf(stderr, "error: unknown mode '%s'\n", mode.c_str());
    usage();
    return 2;
  }
  if (out_dir.empty()) {
    std::fprintf(stderr, "error: run needs --out DIR\n");
    return 2;
  }
  if (opt.workers < 1 || opt.max_attempts < 1) {
    std::fprintf(stderr,
                 "error: --workers and --max-attempts must be >= 1\n");
    return 2;
  }
  opt.out_dir = out_dir;

  try {
    const SweepReport report = hybridnoc::sweep::run_sweep(spec, opt);
    std::printf("%s\n", report.degradation.to_string().c_str());
    std::printf("aggregate: %s\n", report.aggregate_path.c_str());
    std::printf("timings: %s\n", report.timings_path.c_str());
    return report.degradation.complete() ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
