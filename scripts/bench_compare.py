#!/usr/bin/env python3
"""Bench regression checker: diff a fresh plexus-bench-v1 JSON against a
checked-in baseline.

Records are matched by (experiment, device, system, metric). For each pair the
`measured` value is compared:

  * deterministic metrics (everything off the virtual clock: "us", "Mb/s",
    "sim_ns/conn", ...) must match the baseline exactly — the simulation is
    deterministic to the nanosecond, so any move means the engine's
    behaviour changed;
  * wall-clock metrics (unit or metric mentions "wall") are REPORT-ONLY:
    they vary with host load, so drift is printed but never fails the check.

Exit status: 0 when every deterministic metric is identical, 1 on any
difference or a record present in the baseline but missing from the fresh
run (new records in the fresh run are reported but allowed — the suite
grows).

`--self-test` proves the checker can actually fail: it re-reads the
baseline, injects a +25% regression into every deterministic metric, and
exits 0 only if the comparison (correctly) rejects the doctored run.

Stdlib only; no third-party imports.
"""

import argparse
import json
import sys


def load_records(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "plexus-bench-v1":
        raise SystemExit(f"{path}: not a plexus-bench-v1 document "
                         f"(schema={doc.get('schema')!r})")
    out = {}
    for rec in doc.get("records", []):
        key = (rec.get("experiment", ""), rec.get("device", ""),
               rec.get("system", ""), rec.get("metric", ""))
        if key in out:
            raise SystemExit(f"{path}: duplicate record key {key}")
        out[key] = rec
    return out


def is_wall_clock(rec):
    unit = rec.get("unit", "").lower()
    metric = rec.get("metric", "").lower()
    return "wall" in unit or "wall" in metric


def relative_delta(baseline, fresh):
    if baseline == 0:
        return 0.0 if fresh == 0 else float("inf")
    return (fresh - baseline) / abs(baseline)


def compare(baseline, fresh):
    """Returns (failures, lines): failure count and the full report."""
    failures = 0
    lines = []
    for key in sorted(baseline):
        label = "/".join(part for part in key if part)
        if key not in fresh:
            failures += 1
            lines.append(f"FAIL {label}: present in baseline, missing from "
                         f"fresh run")
            continue
        b = baseline[key].get("measured")
        f = fresh[key].get("measured")
        if is_wall_clock(baseline[key]):
            pct = f"{relative_delta(b or 0.0, f or 0.0) * 100.0:+.2f}%"
            lines.append(f"  ok {label}: {pct} (wall-clock, report-only)")
        elif b == f:
            lines.append(f"  ok {label}: identical")
        else:
            failures += 1
            lines.append(f"FAIL {label}: {b} -> {f} (virtual time must be "
                         f"bit-identical)")
    for key in sorted(set(fresh) - set(baseline)):
        label = "/".join(part for part in key if part)
        lines.append(f" new {label}: not in baseline (allowed)")
    return failures, lines


def self_test(baseline):
    doctored = {}
    injected = 0
    for key, rec in baseline.items():
        rec = dict(rec)
        if not is_wall_clock(rec):
            rec["measured"] = rec.get("measured", 0.0) * 1.25
            injected += 1
        doctored[key] = rec
    if injected == 0:
        print("self-test FAIL: baseline has no deterministic records to "
              "doctor")
        return 1
    failures, _ = compare(baseline, doctored)
    if failures == injected:
        print(f"self-test PASS: +25% injection rejected on all {injected} "
              f"deterministic metrics")
        return 0
    print(f"self-test FAIL: only {failures}/{injected} injected regressions "
          f"detected")
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in plexus-bench-v1 JSON")
    parser.add_argument("fresh", nargs="?",
                        help="freshly produced JSON to check (omit with "
                             "--self-test)")
    parser.add_argument("--self-test", action="store_true",
                        help="inject a +25%% regression into the baseline and "
                             "require the comparison to reject it")
    args = parser.parse_args()

    baseline = load_records(args.baseline)
    if args.self_test:
        return self_test(baseline)
    if args.fresh is None:
        parser.error("fresh JSON required unless --self-test")

    fresh = load_records(args.fresh)
    failures, lines = compare(baseline, fresh)
    print(f"bench_compare: {args.fresh} vs baseline {args.baseline} "
          f"(deterministic metrics exact, wall-clock report-only)")
    for line in lines:
        print(line)
    if failures:
        print(f"bench_compare: FAIL ({failures} metric(s) differ)")
        return 1
    print(f"bench_compare: PASS ({len(baseline)} baseline metric(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
