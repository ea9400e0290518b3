#!/usr/bin/env python3
"""Compares one perfbench run with the last recorded change.

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0 \
        | python3 tools/perfbench_compare.py --workload W --trace 0

Copies its input to stdout, then reads the run's final JSON line. For
each metric of BENCHMARK.json that the run reports, the gated
("end_to_end") and the per-layer ones, it prints the run's value next
to the median over the "change" runs of the last BENCH_perfbench.json
entry with the same workload and --trace setting, and the --seconds
those runs were recorded at: the run being compared may be shorter
(CI runs 1 second, the ledger 15), which makes it a rough signal. A
gated value worse
than that median by more than the metric's bound becomes a GitHub
Actions ``::warning::`` line; per-layer metrics have no bound and are
only printed. The script never fails: its exit status is 0 whatever it
reads, and an input it cannot use becomes a ``::warning::`` line, so a
pipeline's status stays the benchmark's own (run it under
``set -o pipefail``).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json_line(lines):
    for line in reversed(lines):
        line = line.strip()
        if line.startswith("{"):
            try:
                result = json.loads(line)
            except ValueError:
                continue
            if isinstance(result, dict) and "metrics" in result:
                return result
    return None


def reference_medians(ledger, workload, trace):
    """Median of each metric over the change side of the last entry that
    ran this workload at this --trace setting. Returns (change title,
    run count, sorted --seconds of those runs, medians)."""
    for entry in reversed(ledger.get("entries", [])):
        runs = [r for r in entry.get("runs", [])
                if r.get("side") == "change" and r.get("workload") == workload
                and r.get("trace") == trace and r.get("result")]
        if not runs:
            continue
        values = {}
        for run in runs:
            for name, metric in run["result"].get("metrics", {}).items():
                values.setdefault(name, []).append(float(metric["value"]))
        return (entry.get("change", "?"), len(runs),
                sorted({r["seconds"] for r in runs if "seconds" in r}),
                {name: statistics.median(v) for name, v in values.items()})
    return None, 0, [], {}


def compare(result, metrics_spec, reference, workload):
    """Returns (report lines, warning lines). ``metrics_spec`` lists
    BENCHMARK.json metric entries; those with a "bound" are gated."""
    lines, warnings = [], []
    metrics = result.get("metrics", {})
    for entry in metrics_spec:
        name = entry["name"]
        if name not in metrics:
            continue
        value = float(metrics[name]["value"])
        ref = reference.get(name)
        if ref is None:
            lines.append(f"  {name:38s} {value:>14.6g}   (no reference)")
            continue
        delta = (value - ref) / ref if ref else 0.0
        bound = entry.get("bound")
        note = f"(bound {bound * 100:g}%)" if bound is not None else ""
        lines.append(f"  {name:38s} {value:>14.6g} {ref:>14.6g} "
                     f"{delta * 100:>+8.1f}%  {note}".rstrip())
        worse = delta if entry.get("better", "lower") == "lower" else -delta
        if bound is not None and worse > bound:
            warnings.append(
                f"::warning::perfbench {workload}: {name} {value:.6g} is "
                f"{worse * 100:.1f}% worse than the recorded median "
                f"{ref:.6g} (bound {bound * 100:g}%)")
    return lines, warnings


def report(args, lines):
    """Prints the comparison of the run in ``lines`` with the ledger."""
    result = last_json_line(lines)
    if result is None:
        print(f"::warning::perfbench {args.workload}: no result line to "
              "compare")
        return
    spec = json.loads(Path(args.benchmark).read_text())
    listed = spec["end_to_end"] + spec.get("per_layer", [])
    ledger = json.loads(Path(args.ledger).read_text())
    change, runs, seconds, reference = reference_medians(
        ledger, args.workload, args.trace)
    recorded = "/".join(str(s) for s in seconds) or "?"
    print(f"perfbench {args.workload} (--trace {args.trace}) against the "
          f"median of {runs} recorded change runs"
          + (f" of \"{change}\" (--seconds {recorded})" if change else ""))
    print(f"  {'metric':38s} {'this run':>14s} {'recorded':>14s} "
          f"{'delta':>9s}")
    lines, warnings = compare(result, listed, reference, args.workload)
    for line in lines + warnings:
        print(line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    ap.add_argument("--ledger", default=str(ROOT / "BENCH_perfbench.json"))
    args = ap.parse_args(argv)

    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(errors="replace")
    lines = sys.stdin.read().splitlines()
    for line in lines:
        print(line)
    sys.stdout.flush()
    try:
        report(args, lines)
    except Exception as err:  # Never fail the pipeline: warn instead.
        print(f"::warning::perfbench {args.workload}: cannot compare with "
              f"the reference: {type(err).__name__}: {err}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
