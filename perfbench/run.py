#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --describe

The first form builds the simulator library from ../src together with the
benchmark (CMake, into .bench_build/ at the repository root), runs one
workload, and relays the program's output. Its last line is the result
object; the exit code is non-zero when a check failed or the build did.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones, and
writes the traced run's spans and profile to .bench_build/traces/.

--self-test runs every workload at a smoke size and checks the benchmark
itself: metric names against BENCHMARK.json, the tail's sample count, the
profiler coverage, an injected dropped operation, the engine-gate guard,
and the layer split the workloads were chosen for.

--describe prints every metric with the end-to-end metric and workloads
it is expected to move.
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
BINARY = os.path.join(BUILD, "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 6


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally. Returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no simulator sources at src/; nothing to build")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return os.access(BINARY, os.X_OK)


def source_stamp():
    """git sha when available, and a digest of the sources that were built."""
    sha = "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("__"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "git=%s src_sha256=%s" % (sha, h.hexdigest()[:16])


def run_program(args, env=None):
    """Runs the benchmark program; returns (exit code, stdout lines)."""
    try:
        result = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, []
    return result.returncode, result.stdout.splitlines()


def parse(lines):
    """The result object (last line) and the detail object, or (None, None)."""
    result = detail = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
    return result, detail


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench


def self_test():
    failures = []

    def check(ok, what):
        print("  %-4s %s" % ("PASS" if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    bench = declared_metrics()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]

    code, lines = run_program(["--list-metrics"])
    table = [json.loads(l) for l in lines]
    program_e2e = {m["name"]: m["unit"] for m in table if m["kind"] == "end_to_end"}
    program_layer = {m["name"]: m["unit"] for m in table if m["kind"] == "per_layer"}
    check(code == 0 and program_e2e == e2e,
          "end-to-end metrics and units of the program == BENCHMARK.json")
    check(program_layer == layer, "per-layer metrics and units of the program == BENCHMARK.json")

    values = {}
    for w in workloads:
        for trace in (0, 1):
            code, lines = run_program(["--workload", w, "--seed", "1", "--seconds",
                                       str(SMOKE_SECONDS), "--trace", str(trace)])
            result, detail = parse(lines)
            tag = "%s --trace %d" % (w, trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0, tag + ": exits 0, correct, nothing failed")
            if result is None:
                continue
            want = layer if trace else e2e
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, tag + ": printed metric names and units == BENCHMARK.json")
            check(detail is not None and detail["tail_beyond"] >= 10,
                  tag + ": tail percentile has >= 10 chunks beyond it")
            if trace:
                v = {k: m["value"] for k, m in result["metrics"].items()}
                values[w] = v
                check(0 < v["engine.profiled_coverage"] <= 1,
                      tag + ": 0 < engine.profiled_coverage <= 1")

    code, lines = run_program(["--workload", "http_churn", "--seed", "1", "--seconds", "1",
                               "--trace", "0", "--inject-drop"])
    result, detail = parse(lines)
    check(code != 0 and result is not None and result["failed"] >= 1
          and detail["error_rate"] > 0, "an injected dropped op shows up in error_rate")

    env = dict(os.environ, PLEXUS_BATCH="off")
    code, lines = run_program(["--workload", "udp_rpc", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], env=env)
    check(code != 0 and parse(lines)[0] is None, "refuses to run with an engine gate set")

    if all(w in values for w in ("http_churn", "udp_rpc", "tcp_bulk", "udp_flood")):
        check(values["udp_rpc"]["spin.batch_mean_burst"] == 0,
              "udp_rpc delivers no batched raises")
        check(values["tcp_bulk"]["spin.batch_mean_burst"] > 1,
              "tcp_bulk raises bursts of more than one packet")
        check(values["http_churn"]["sim.timer_pending_peak"]
              >= 100 * values["udp_rpc"]["sim.timer_pending_peak"],
              "http_churn's timer_pending_peak >= 100x udp_rpc's")
        for metric in ("drivers.poll_entries", "spin.deferred_shed_ratio"):
            nonzero = sorted(w for w in values if values[w][metric] != 0)
            check(nonzero == ["udp_flood"], "only udp_flood has nonzero " + metric)
    else:
        check(False, "layer split: every workload produced per-layer metrics")

    print("self-test: %s" % ("PASS" if not failures else "%d FAILED" % len(failures)))
    return 0 if not failures else 1


def describe():
    bench = declared_metrics()
    for w in bench["workloads"]:
        print("%-11s %s" % (w["name"], w["why"]))
    code, lines = run_program(["--list-metrics"])
    print("\n%-40s %-9s %-7s %-28s %s" % ("metric", "unit", "better", "moves", "on"))
    for line in lines:
        m = json.loads(line)
        print("%-40s %-9s %-7s %-28s %s" % (m["name"], m["unit"], m["better"],
                                              m["moves"] or "-", m["on"]))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    if args.self_test:
        return self_test()
    if args.describe:
        return describe()
    if not args.workload:
        parser.error("--workload is required")

    print("source: " + source_stamp(), flush=True)
    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
           repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--spans-out", TRACES]
    code, lines = run_program(cmd)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
