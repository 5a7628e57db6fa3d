#!/usr/bin/env python3
"""Gate BENCH_*.json records against a committed baseline.

Usage: check_perf_regression.py <current.json> <baseline.json> [threshold]
           [--require-speedup SLOW:FAST:RATIO]...

Fails (exit 1) when any record's wall_ms regresses more than `threshold`x
(default 1.5, or $HG_PERF_THRESHOLD; a finite ratio >= 1) against the
same-named record in the baseline file, and the measurement is above the
noise floor. Records missing on either side are
reported but do not fail the gate (bench contents may evolve); improvements
are reported for the log.

--require-speedup SLOW:FAST:RATIO (repeatable) additionally asserts a
relationship WITHIN the current file: record SLOW's wall_ms must be at
least RATIO times record FAST's wall_ms. This is how CI pins the committed
curves — e.g. `serve/workers=1:serve/workers=4:1.8` (worker scaling) or
`predict/remote_lone:predict/remote_batched:2` (wire batching) — without
depending on the absolute speed of the runner. A named record missing from
the current file fails the gate (exit 1): silently skipping would let a
renamed bench retire the guarantee.

Any failure prints both files' `kernel_isa` (the body the run-time
dispatched kernels ran: "avx2" or "baseline"; "unknown" for records
written before it was recorded), so a step between records that is only a
different kernel body can be told from a regression. Bad input (an
unreadable file, a malformed spec, a threshold or ratio that is not a
finite number in range) exits 2 with a one-line error.

The baseline lives in bench/baseline/ and is refreshed deliberately, by
committing a new BENCH_*.json produced on the reference configuration —
that keeps the perf trajectory an explicit, reviewable artifact.
"""

import argparse
import json
import math
import os
import sys

# Records faster than this are timer/scheduler noise, not regressions.
NOISE_FLOOR_MS = 5.0


def die(msg):
    """One-line usage/input error, exit 2 (distinct from exit 1 = a real
    perf regression, so CI annotations stay unambiguous)."""
    print(msg, file=sys.stderr)
    sys.exit(2)


def load_records(path):
    """Parse a BENCH_*.json into ({name: record}, kernel_isa); exits 2 with
    a one-line error on a missing or malformed file (a CI misconfiguration,
    not a perf regression — the traceback would bury the actual
    problem)."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        die(f"error: cannot read bench records {path!r}: {e.strerror}")
    except json.JSONDecodeError as e:
        die(f"error: {path!r} is not valid JSON (line {e.lineno}: {e.msg})")
    records = data.get("records") if isinstance(data, dict) else None
    if not isinstance(records, list):
        die(f"error: {path!r} has no 'records' array — not a "
            "BENCH_*.json file?")
    try:
        by_name = {r["name"]: r for r in records}
    except (KeyError, TypeError):
        die(f"error: {path!r} has a record without a 'name' field")
    return by_name, str(data.get("kernel_isa", "unknown"))


def parse_threshold(text, source):
    """A regression threshold: a finite ratio >= 1. Anything else exits 2
    (a NaN would pass every comparison, a ratio below 1 fail every one)."""
    try:
        value = float(text)
    except ValueError:
        die(f"error: threshold {text!r} ({source}) is not a number")
    if not math.isfinite(value) or value < 1:
        die(f"error: threshold {text!r} ({source}) is not a finite "
            "ratio >= 1")
    return value


def parse_speedup_spec(spec):
    """'slow:fast:ratio' -> (slow, fast, float(ratio)); exits 2 on a
    malformed spec (a CI misconfiguration, not a perf failure)."""
    parts = spec.rsplit(":", 1)
    if len(parts) != 2 or ":" not in parts[0]:
        die(f"error: --require-speedup spec {spec!r} is not SLOW:FAST:RATIO")
    slow, fast = parts[0].split(":", 1)
    try:
        ratio = float(parts[1])
    except ValueError:
        die(f"error: --require-speedup ratio {parts[1]!r} is not a number")
    if not math.isfinite(ratio):
        die(f"error: --require-speedup ratio {parts[1]!r} is not finite")
    if not slow or not fast or ratio <= 0:
        die(f"error: --require-speedup spec {spec!r} is not SLOW:FAST:RATIO")
    return slow, fast, ratio


def check_speedups(current, specs):
    """Returns a list of human-readable failures for unmet SLOW:FAST:RATIO
    assertions over the current records."""
    failures = []
    for slow, fast, required in specs:
        missing = [n for n in (slow, fast) if n not in current]
        if missing:
            failures.append(
                f"required record(s) missing from current run: "
                f"{', '.join(repr(n) for n in missing)}")
            continue
        try:
            slow_ms = float(current[slow]["wall_ms"])
            fast_ms = float(current[fast]["wall_ms"])
        except (KeyError, TypeError, ValueError):
            die(f"error: speedup records {slow!r}/{fast!r} have a missing "
                "or non-numeric 'wall_ms' field")
        actual = slow_ms / fast_ms if fast_ms > 0 else float("inf")
        verdict = "OK" if actual >= required else "TOO SLOW"
        print(f"  {verdict:>10}  {fast}: {actual:.2f}x faster than {slow} "
              f"(required {required:.2f}x)")
        if actual < required:
            failures.append(
                f"{fast} is only {actual:.2f}x faster than {slow} "
                f"(required {required:.2f}x: {slow_ms:.1f} ms vs "
                f"{fast_ms:.1f} ms)")
    return failures


def main():
    parser = argparse.ArgumentParser(
        add_help=False, usage=argparse.SUPPRESS)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("threshold", nargs="?", default=None)
    parser.add_argument("--require-speedup", action="append", default=[],
                        dest="require_speedup", metavar="SLOW:FAST:RATIO")
    try:
        args = parser.parse_args()
    except SystemExit:
        print(__doc__)
        return 2
    current_path, baseline_path = args.current, args.baseline
    if args.threshold is not None:
        threshold = parse_threshold(args.threshold, "argument")
    else:
        threshold = parse_threshold(
            os.environ.get("HG_PERF_THRESHOLD", "1.5"), "HG_PERF_THRESHOLD")
    speedup_specs = [parse_speedup_spec(s) for s in args.require_speedup]

    current, current_isa = load_records(current_path)
    baseline, baseline_isa = load_records(baseline_path)

    failures = []
    compared = 0
    for name, rec in sorted(current.items()):
        base = baseline.get(name)
        if base is None:
            print(f"  new record (no baseline): {name}")
            continue
        try:
            cur_ms = float(rec["wall_ms"])
            base_ms = float(base["wall_ms"])
        except (KeyError, TypeError, ValueError):
            die(f"error: record {name!r} has a missing or non-numeric "
                "'wall_ms' field")
        if rec.get("threads") != base.get("threads"):
            print(f"  skipped (thread count differs): {name}")
            continue
        if rec.get("problem") != base.get("problem"):
            # e.g. a baseline refreshed from a full run vs CI's --quick run:
            # different problem sizes are not comparable.
            print(f"  skipped (problem size differs): {name} "
                  f"({base.get('problem')!r} vs {rec.get('problem')!r})")
            continue
        if base_ms < NOISE_FLOOR_MS and cur_ms < NOISE_FLOOR_MS:
            continue
        compared += 1
        ratio = cur_ms / base_ms if base_ms > 0 else float("inf")
        verdict = "OK"
        if ratio > threshold:
            verdict = "REGRESSION"
            failures.append((name, base_ms, cur_ms, ratio))
        elif ratio < 1.0 / threshold:
            verdict = "improved"
        print(f"  {verdict:>10}  {name}: {base_ms:.1f} ms -> {cur_ms:.1f} ms "
              f"({ratio:.2f}x)")

    for name in sorted(set(baseline) - set(current)):
        print(f"  record dropped from bench: {name}")

    speedup_failures = check_speedups(current, speedup_specs)

    if failures:
        print(f"\n{len(failures)} record(s) regressed beyond {threshold}x:")
        for name, base_ms, cur_ms, ratio in failures:
            print(f"  {name}: {base_ms:.1f} ms -> {cur_ms:.1f} ms "
                  f"({ratio:.2f}x)")
    if speedup_failures:
        print(f"\n{len(speedup_failures)} required speedup(s) unmet:")
        for msg in speedup_failures:
            print(f"  {msg}")
    if failures or speedup_failures:
        print(f"\nkernel_isa: current {current_isa}, "
              f"baseline {baseline_isa}")
        return 1
    print(f"\nperf gate passed ({compared} records compared, "
          f"{len(speedup_specs)} speedup assertion(s), "
          f"threshold {threshold}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
