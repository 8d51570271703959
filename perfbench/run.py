#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/BENCH.md).

Run from the repository root:

  python3 perfbench/run.py --workload loaded8 --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all          # every workload in turn
  python3 perfbench/run.py --selftest              # every output check fires
  python3 perfbench/run.py --record perfbench/baseline.json
  python3 perfbench/run.py --compare OLD.json NEW.json

A run builds the simulator and the measuring binary from source into
.bench_build/ (or $CARGO_TARGET_DIR), runs one workload, checks its outputs,
writes the full result with a host fingerprint to .bench_results/, prints
each metric by name and unit, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["loaded8", "hetero36", "mesh32", "sweep8", "fast64"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170  # per run, after the (incremental) build
FINGERPRINT_KEYS = ("cpu_model", "nproc", "build_type", "compiler")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then an incremental build of the perfbench binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(out, "perfbench")


def source_fingerprint():
    """Git commit when the checkout is a repository, and a digest of the
    sources either way (the benchmark also runs from plain exports)."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit, h.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, trace, deadline):
    results = os.path.join(ROOT, ".bench_results")
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(results, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (workload, seed, trace))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--out", stem + ".json", "--workdir", work]
    if trace:
        cmd += ["--spans", stem + ".spans.json"]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out" % workload, 1)
    if code != 0:
        fail("%s exited with code %d" % (workload, code), 1)
    with open(stem + ".json") as f:
        result = json.load(f)
    commit, digest = source_fingerprint()
    result["fingerprint"]["git_commit"] = commit
    result["fingerprint"]["source_digest"] = digest
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=2)
    return result


def report(result, spec, trace):
    """Print every metric by name and unit; return the final result line."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["values"]
    correct = result["failed"] == 0 and result["attempted"] > 0
    metrics = {}
    print("== %s seed %d (%s): %d windows, tail = p%d with %d beyond" % (
        result["workload"], result["seed"], "traced" if trace else "untraced",
        result["windows"], result["tail_percentile"], result["tail_beyond"]))
    for m in declared:
        v = values.get(m["name"])
        if v is None:
            correct = False
            print("  %-34s MISSING" % m["name"])
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        raw = values.get("raw." + m["name"])
        print("  %-34s %16.6g %-8s%s" % (
            m["name"], v, m["unit"],
            "" if raw is None else "  (as measured: %.6g)" % raw))
    if not trace:
        for m in declared:
            v = values.get(m["name"])
            if v is not None and not v > 0:
                correct = False
                print("  %s is not positive" % m["name"])
    shown = {m["name"] for m in declared}
    for name in ("failed_frac", "sweep_points_per_s", "model_latency_cycles",
                 "model_cpu_ipc", "model_gpu_txn_per_cycle",
                 "host.reference_ms"):
        if name not in shown and name in values:
            print("  %-34s %16.6g (also measured)" % (name, values[name]))
    for reason in result["failures"]:
        print("  FAILED: " + reason)
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def record(path, spec):
    """Medians and spreads of every untraced result in .bench_results/."""
    results = os.path.join(ROOT, ".bench_results")
    by_workload = {}
    fingerprint = None
    for name in sorted(os.listdir(results)):
        if not name.endswith("-trace0.json"):
            continue
        with open(os.path.join(results, name)) as f:
            r = json.load(f)
        by_workload.setdefault(r["workload"], []).append(r)
        host = {k: r["fingerprint"][k] for k in FINGERPRINT_KEYS}
        if fingerprint is not None and host != {
                k: fingerprint[k] for k in FINGERPRINT_KEYS}:
            fail("results from different hosts in .bench_results/")
        fingerprint = dict(host, git_commit=r["fingerprint"].get("git_commit"),
                           source_digest=r["fingerprint"].get("source_digest"))
    out = {"fingerprint": fingerprint, "workloads": {}}
    for wl, runs in sorted(by_workload.items()):
        rows = {}
        for m in spec["end_to_end"]:
            vals = [r["values"][m["name"]] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "unit": m["unit"]}
            flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else \
                "  <-- spread above a third of the bound"
            print("%-9s %-26s median %12.6g %-6s spread %6.2f%% (bound %g)%s" % (
                wl, m["name"], med, m["unit"], spread * 100, m["bound"] * 100,
                flag))
        out["workloads"][wl] = {"runs": len(runs),
                                "model_digests": {str(r["seed"]): r["model_digest"]
                                                  for r in runs},
                                "failed": sum(r["failed"] for r in runs),
                                "metrics": rows}
    with open(path, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")


def compare(old_path, new_path, spec):
    """Per-metric change between two --record files. Different host
    fingerprints make every row cross-host: neither regression nor gain."""
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    same_host = all(old["fingerprint"].get(k) == new["fingerprint"].get(k)
                    for k in FINGERPRINT_KEYS)
    if not same_host:
        print("cross-host: fingerprints differ, no regression or gain is claimed")
    verdicts = []
    for wl in sorted(set(old["workloads"]) & set(new["workloads"])):
        a = old["workloads"][wl].get("model_digests", {})
        b = new["workloads"][wl].get("model_digests", {})
        changed = sorted(s for s in set(a) & set(b) if a[s] != b[s])
        if changed:
            print("%-9s simulated results changed on seeds %s" % (
                wl, ", ".join(changed)))
    for m in spec["end_to_end"]:
        for wl in sorted(set(old["workloads"]) & set(new["workloads"])):
            a = old["workloads"][wl]["metrics"][m["name"]]["median"]
            b = new["workloads"][wl]["metrics"][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            if not same_host:
                verdict = "cross-host"
            elif worse > m["bound"]:
                verdict = "regression"
            elif -worse > m["bound"]:
                verdict = "better beyond bound"
            else:
                verdict = "within bound"
            verdicts.append(verdict)
            print("%-9s %-26s %12.6g -> %12.6g %+7.2f%%  %s" % (
                wl, m["name"], a, b, (b - a) / a * 100, verdict))
    return verdicts


def selftest(binary, spec):
    code = subprocess.run([binary, "--selftest"]).returncode
    # compare() must call a fingerprint change cross-host, never a regression.
    fp = {"cpu_model": "A", "nproc": 4, "build_type": "RelWithDebInfo",
          "compiler": "gcc"}
    rows = {m["name"]: {"median": 1.0} for m in spec["end_to_end"]}
    slow = {m["name"]: {"median": 2.0 if m["better"] == "lower" else 0.5}
            for m in spec["end_to_end"]}
    tmp = os.path.join(ROOT, ".bench_work")
    os.makedirs(tmp, exist_ok=True)
    paths = [os.path.join(tmp, n) for n in ("old.json", "new.json", "other.json")]
    docs = [{"fingerprint": fp, "workloads": {"w": {"metrics": rows}}},
            {"fingerprint": fp, "workloads": {"w": {"metrics": slow}}},
            {"fingerprint": dict(fp, nproc=1), "workloads": {"w": {"metrics": slow}}}]
    for p, d in zip(paths, docs):
        with open(p, "w") as f:
            json.dump(d, f)
    same = compare(paths[0], paths[1], spec)
    cross = compare(paths[0], paths[2], spec)
    shutil.rmtree(tmp, ignore_errors=True)
    ok = set(same) == {"regression"} and set(cross) == {"cross-host"}
    print("compare-fingerprint    %s" % ("ok" if ok else "FAIL"))
    return 0 if code == 0 and ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", metavar="FILE")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    spec = load_spec()
    if args.record:
        record(args.record, spec)
        return
    if args.compare:
        compare(args.compare[0], args.compare[1], spec)
        return
    binary = build()
    if args.selftest:
        sys.exit(selftest(binary, spec))
    if not args.workload:
        ap.error("--workload is required")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    work = os.path.join(ROOT, ".bench_work")
    try:
        if args.workload == "all":
            lines = {}
            for wl in WORKLOADS:
                r = run_workload(binary, wl, args.seed, seconds, args.trace,
                                 time.monotonic() + RUN_TIMEOUT_S)
                lines[wl] = report(r, spec, args.trace)
            print(json.dumps(lines))
            return
        r = run_workload(binary, args.workload, args.seed, seconds, args.trace,
                         time.monotonic() + RUN_TIMEOUT_S)
        print(json.dumps(report(r, spec, args.trace)))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
