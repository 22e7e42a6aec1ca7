#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload rpc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first form builds perfbench (Release, into .bench_build/ at the root of
the checkout) if needed, then runs one workload with one seed; the last
line of standard output is the JSON result. The second form runs the
benchmark's own checks: metric catalog, planted corruption, determinism,
and the cross-check against the paper-figure harnesses.
"""

import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RESULTS = os.path.join(BUILD, "results")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.isfile(
            os.path.join(ROOT, "bench", "bench_util.cpp")):
        fail("library sources (src/, bench/bench_util.cpp) not found next to "
             + os.path.relpath(HERE, ROOT))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """sha256 over the library and benchmark sources (a commit stand-in
    when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Turn address-space randomization off in the benchmark process: each
    randomized layout runs the same code at another speed, which moved
    host_ops_per_s by about 5% between runs. Best effort; the binary stamps
    whether it took effect."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xffffffff)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_binary(args, capture=False):
    cmd = [BINARY] + args + ["--out-dir", RESULTS, "--commit", commit_id(),
                             "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None,
                              preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)


# --------------------------------------------------------------- selftest --

def record(workload, seed, trace):
    path = os.path.join(RESULTS, "%s-s%d-t%d.json" % (workload, seed, trace))
    with open(path) as f:
        return json.load(f)


def run_quick(workload, seed, trace, extra=()):
    """One minimal run (the binary still makes its minimum rounds)."""
    done = run_binary(["--workload", workload, "--seed", str(seed),
                       "--seconds", "0.01", "--trace", str(trace)] +
                      list(extra), capture=True)
    last = done.stdout.strip().splitlines()[-1]
    return done.returncode, json.loads(last), record(workload, seed, trace)


LIBRARY_KEYS = ("lib.lat_p50_us", "lib.lat_p99_us", "lib.bw_mbs",
                "lib.latency_samples", "lib.error_rate", "draw_digest")
# Per-layer values measured on the host (or by sampling/spans); every
# other layer.* entry comes from virtual time or library counters.
HOST_LAYER = ("layer.sim.run_wall_s", "layer.sim.user_s", "layer.sim.sys_s",
              "layer.sim.minflt", "layer.sim.host_s_per_virtual_s",
              "layer.setup.session_s", "layer.setup.vchannel_s",
              "layer.setup.spawn_s", "layer.obs.trace_overhead_frac")


def selftest(workloads):
    failures = []

    def check(ok, what):
        print(("PASS  " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    # 1. The catalog the binary emits is the one BENCHMARK.json declares.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                            text=True).stdout.split("\n")
    emitted = [tuple(line.split()) for line in listed if line]
    declared = [("end_to_end", m["name"], m["unit"]) for m in
                spec["end_to_end"]] + [("per_layer", m["name"], m["unit"])
                                       for m in spec["per_layer"]]
    check(emitted == declared, "metric catalog matches BENCHMARK.json")
    check(set(workloads) <= {w["name"] for w in spec["workloads"]},
          "workloads are declared in BENCHMARK.json")

    with open(os.path.join(ROOT, "bench", "baseline", "BENCH_fig10.json")) as f:
        fig10 = json.load(f)
    fig10_bw = [p["bandwidth_mbs"] for s in fig10["series"]
                if s["label"] == "mtu16384" for p in s["points"]
                if p["size"] == 1048576][0]

    for w in workloads:
        # 2. A planted wrong expectation fails exactly one op.
        code, result, rec = run_quick(w, 1, 0, ["--plant-corruption"])
        check(code != 0 and result["failed"] == 1 and not result["correct"] and
              rec["info"]["lib.error_rate"] == 1.0 / result["attempted"],
              "%s: planted corruption gives error_rate = 1/attempted and a "
              "non-zero exit" % w)

        # 3. Determinism: same seed, same library outputs; traced run has
        #    the same virtual-time values; another seed, another draw.
        code, result, first = run_quick(w, 1, 0)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              "%s: seed 1 runs clean (error_rate 0)" % w)
        _, _, second = run_quick(w, 1, 0)
        check(all(first["info"][k] == second["info"][k] for k in LIBRARY_KEYS),
              "%s: two runs of seed 1 give bit-identical library metrics" % w)
        code, _, traced = run_quick(w, 1, 1)
        check(code == 0 and all(first["info"][k] == traced["info"][k]
                                for k in LIBRARY_KEYS),
              "%s: traced run gives the untraced library metrics" % w)
        _, _, traced2 = run_quick(w, 1, 1)
        virtual = [k for k in traced["info"] if k.startswith("layer.") and
                   k not in HOST_LAYER]
        check(all(traced["info"][k] == traced2["info"][k] for k in virtual),
              "%s: two traced runs give identical virtual-time per-layer "
              "values (%d compared)" % (w, len(virtual)))
        _, _, other = run_quick(w, 2, 0)
        check(other["info"]["draw_digest"] != first["info"]["draw_digest"],
              "%s: seed 2 draws a different input sequence" % w)

        # 4. Cross-check against the paper-figure harnesses.
        check(traced["info"]["xcheck.fig5_mad_4b_dev"] <= 0.01 and
              traced["info"]["xcheck.fig5_raw_4b_dev"] <= 0.01,
              "%s: ladder 4 B one-way latencies within 1%% of the fig5 "
              "harness" % w)
        if w == "forward":
            bw = first["info"]["lib.bw_mbs"]
            check(abs(bw / fig10_bw - 1) <= 0.05,
                  "forward: phase B %.3f MB/s within 5%% of BENCH_fig10 "
                  "mtu16384/1MiB %.3f MB/s" % (bw, fig10_bw))
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", nargs="*", metavar="WORKLOAD")
    args = parser.parse_args()
    build()
    if args.selftest is not None:
        return selftest(args.selftest or ["rpc", "forward", "incast"])
    if not args.workload:
        fail("--workload is required")
    done = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", repr(args.seconds), "--trace",
                       str(args.trace)])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
