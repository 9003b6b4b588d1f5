#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload dpf_churn --seed 1 --seconds 10 --trace 0

Run from the repository root. The script builds the runner
(perfbench/CMakeLists.txt) under .bench_build/, then:

1. runs the determinism self-check: a traced pass over the workload's
   exact-count prefix at the same seed, a pass at another seed, and a pass
   with one expected output corrupted;
2. runs the workload for --seconds as a single-client closed loop, with
   tracing off (--trace 0: end-to-end metrics) or in alternating traced
   and untraced blocks (--trace 1: per-layer metrics and tracing overhead);
3. prints a host and build record, then, as the last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}.

The metric names, units and the workload list come from BENCHMARK.json;
perfbench/METRICS.md says what each metric measures, which layer it
belongs to and which end-to-end metric it should move.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench")

# Set-ups per measured run; setup_s is their median.
SETUPS = 5
# Per-layer metrics each workload measures. The others read 0 on that
# workload: it never calls the layer (see METRICS.md).
LAYERS = {
    "dpf_churn": {
        "dpf.key_us", "dpf.trie_build_us", "core.vcode_setup_us",
        "dpf.emit_us", "dpf.install_hit_us", "dpf.install_miss_us",
        "dpf.install_residual_us", "dpf.install_residual_share",
        "core.cache_hit_ratio", "core.cache_evictions_per_req",
        "core.cache_region_reuse_ratio", "dpf.classify_us",
        "dpf.trie_classify_us", "profile.codemap_live",
        "bench.trace_overhead"},
    "dpf_dispatch": {
        "dpf.classify_us", "sim.call_span_us", "sim.call_vector_us",
        "dpf.dispatch_overhead_us", "dpf.trie_classify_us",
        "profile.codemap_live", "bench.trace_overhead"},
    "tcc_dbt": {
        "tcc.compile_into_us", "tcc.shared_residual_us",
        "dbt.first_call_us", "dbt.warm_call_us", "dbt.blocks_per_program",
        "dbt.speedup_vs_interp", "dbt.translate_failures_per_call",
        "core.cache_hit_ratio",
        "core.cache_evictions_per_req", "core.cache_region_reuse_ratio",
        "profile.codemap_live", "bench.trace_overhead"},
    "ash_msg": {
        "sim.guest_mips", "sim.dcache_misses_per_exec",
        "sim.load_stalls_per_exec", "ash.run_us_per_kb", "ash.compile_us",
        "profile.codemap_live", "bench.trace_overhead"},
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build failed: %s" % e)
            return False
        if r.returncode != 0:
            log("build failed: %s" % " ".join(cmd))
            return False
    return True


def drive(workload, seed, seconds, trace, setups=1, corrupt=False):
    """Runs the runner once and returns its JSON record."""
    cmd = [RUNNER, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=" + trace,
           "--setups=%d" % setups]
    if corrupt:
        cmd.append("--corrupt")
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=sys.stderr, timeout=150, text=True)
    if r.returncode != 0:
        raise RuntimeError("runner exited with %d: %s"
                           % (r.returncode, " ".join(cmd)))
    return json.loads(r.stdout.strip().splitlines()[-1])


def self_check(workload, seed, main):
    """The determinism self-check; returns a list of problems."""
    problems = []
    traced = drive(workload, seed, 0, "on")
    other = drive(workload, seed + 1, 0, "off")
    corrupt = drive(workload, seed, 0, "off", corrupt=True)
    if traced["exact"] != main["exact"]:
        diff = {k: (main["exact"].get(k), v)
                for k, v in traced["exact"].items()
                if main["exact"].get(k) != v}
        problems.append("exact counts differ between runs at seed %d: %s"
                        % (seed, diff))
    if traced["digest"] != main["digest"]:
        problems.append("request stream differs between runs at one seed")
    if other["digest"] == main["digest"]:
        problems.append("seed %d gives the same request stream as seed %d"
                        % (seed + 1, seed))
    if traced["failed"] or other["failed"]:
        problems.append("self-check passes saw output mismatches")
    if corrupt["failed"] == 0:
        problems.append("a corrupted expected output went unnoticed")
    return problems


def source_digest():
    """sha256 over the sources the runner is built from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_record(main):
    rev = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10, env=env)
        if r.returncode == 0:
            rev = r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rec = {"git_rev": rev, "source_digest": source_digest(),
           "cpu_model": cpu, "nproc": os.cpu_count()}
    rec.update(main["build"])
    return rec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("unknown workload %r" % args.workload)
        return 2
    if not build():
        return 1

    try:
        run = drive(args.workload, args.seed, args.seconds,
                    "alternate" if args.trace else "off", setups=SETUPS)
        problems = self_check(args.workload, args.seed, run)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1

    if args.trace:
        wanted, values = spec["per_layer"], run["layers"]
        applies = LAYERS[args.workload]
    else:
        wanted, values = spec["end_to_end"], run["e2e"]
        applies = {m["name"] for m in wanted}
    metrics = {}
    for m in wanted:
        name = m["name"]
        value = values.get(name, 0.0) if name in applies else 0.0
        if name in applies and not value and not args.trace:
            problems.append("end-to-end metric %s read 0" % name)
        elif name in applies and name not in values:
            problems.append("metric %s was not measured" % name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    if run["setup_failures"]:
        problems.append("%d set-up outputs mismatched their oracle"
                        % run["setup_failures"])
    for p in problems:
        log("CHECK FAILED: " + p)

    print(json.dumps({"host": host_record(run), "workload": args.workload,
                      "seed": args.seed, "window_s": run["window_s"],
                      "samples": run["samples"],
                      "block_req_per_s": run["block_req_per_s"],
                      "exact": run["exact"],
                      "self_check": problems or "ok"}))
    print(json.dumps({"correct": not problems and run["failed"] == 0,
                      "attempted": run["requests"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
