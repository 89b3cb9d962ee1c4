#!/usr/bin/env python3
"""Compare freshly generated BENCH_*.json files against committed baselines.

    scripts/bench_delta.py <fresh_dir> [<baseline_dir>] [--threshold=PCT]

Every metric is classified by its name into higher-is-better (qps,
speedup, throughput), lower-is-better (latencies, wall times,
work units, mismatch counts), or informational (configuration echoes like
`workers` or `hardware_concurrency`, which never gate). A move beyond the
threshold (default 15%) in the BAD direction is a regression; the exit
code is nonzero when any regression was found, so callers can gate on it.
CI keeps the perf-smoke step non-gating (`continue-on-error`) because
shared-runner wall clocks are noisy — the exit code is for humans running
the comparison on quiet hardware, and for the job-summary table this
script appends to $GITHUB_STEP_SUMMARY when that variable is set.

Harness provenance (git_sha, build_type, dop, effective_cores) is stamped
into each file by bench/harness_util; comparing across different build
types or dops is reported as a warning because such deltas measure the
configuration, not the code. `effective_cores` is the spin-calibrated
count of cores the run actually got (not hardware_concurrency); it is
printed next to each comparison. Older files may still carry a `backend`
key from when a second index structure existed, or a `policy` key from
when a second adaptation policy existed; both are ignored. When either
side of a comparison carries the `speedups_not_meaningful` marker
(bench/parallel_scaling sets it when the host measures under 1.5
effective cores, mirroring its WARNING line), all dop>1 metrics and all
speedup ratios are skipped: such "speedups" are scheduler noise.
Only Python stdlib is used.
"""

import json
import os
import sys

DEFAULT_THRESHOLD = 15.0

HIGHER_BETTER = ("qps", "speedup", "throughput", "per_second", "identity")
LOWER_BETTER = ("_ms", "_us", "wall", "latency", "seconds", "work_units",
                "mismatch", "_ns")
# Configuration echoes and activity counters: reported, never gated.
INFORMATIONAL = ("workers", "hardware_concurrency", "morsel", "queries",
                 "order_switches", "reorders", "switches", "folds", "dop",
                 "rows", "probes")


def classify(name):
    low = name.lower()
    # The marker metric contains "speedup" but is a configuration echo.
    if "not_meaningful" in low:
        return "info"
    for pat in INFORMATIONAL:
        if pat in low:
            # Lower/higher patterns win when both match (e.g. a latency
            # metric that mentions workers in its name).
            if any(p in low for p in LOWER_BETTER + HIGHER_BETTER):
                break
            return "info"
    for pat in HIGHER_BETTER:
        if pat in low:
            return "higher"
    for pat in LOWER_BETTER:
        if pat in low:
            return "lower"
    return "info"


def load(path):
    with open(path) as f:
        doc = json.load(f)
    meta = {k: doc.get(k)
            for k in ("git_sha", "build_type", "dop", "effective_cores")}
    return {m["name"]: m["value"] for m in doc.get("metrics", [])}, meta


def dop_of(metric):
    """Returns the dop a per-dop metric was measured at, or None.

    Matches the `<name>_dopN` / `<name>_dopN_<suffix>` convention used by
    bench/parallel_scaling (e.g. `speedup_dop4`, `work_units_dop2_vs_serial`).
    """
    low = metric.lower()
    idx = low.find("_dop")
    while idx != -1:
        digits = ""
        j = idx + 4
        while j < len(low) and low[j].isdigit():
            digits += low[j]
            j += 1
        if digits and (j == len(low) or low[j] == "_"):
            return int(digits)
        idx = low.find("_dop", idx + 1)
    return None


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    threshold = DEFAULT_THRESHOLD
    for a in sys.argv[1:]:
        if a.startswith("--threshold="):
            threshold = float(a.split("=", 1)[1])
    if not args:
        print(__doc__.strip())
        return 0
    fresh_dir = args[0]
    base_dir = args[1] if len(args) > 1 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "bench", "baselines")

    names = sorted(n for n in os.listdir(fresh_dir)
                   if n.startswith("BENCH_") and n.endswith(".json"))
    if not names:
        print(f"no BENCH_*.json files in {fresh_dir}")
        return 0

    regressions = []
    improvements = []
    table = ["| bench | metric | baseline | fresh | delta | verdict |",
             "|---|---|---:|---:|---:|---|"]
    for name in names:
        base_path = os.path.join(base_dir, name)
        print(f"== {name} ==")
        if not os.path.exists(base_path):
            print("  (no committed baseline; skipping)")
            continue
        fresh, fmeta = load(os.path.join(fresh_dir, name))
        base, bmeta = load(base_path)
        for key in ("build_type", "dop"):
            if bmeta.get(key) is not None and fmeta.get(key) is not None \
                    and bmeta[key] != fmeta[key]:
                print(f"  WARNING: {key} differs "
                      f"(baseline={bmeta[key]}, fresh={fmeta[key]}); "
                      "deltas measure the configuration, not the code")
        print(f"  effective cores: baseline={bmeta.get('effective_cores')}, "
              f"fresh={fmeta.get('effective_cores')}")
        single_core = fresh.get("speedups_not_meaningful") == 1 or \
            base.get("speedups_not_meaningful") == 1
        if single_core:
            print("  NOTE: speedups_not_meaningful marker set "
                  "(under 1.5 effective cores on at least one side); "
                  "skipping dop>1 and speedup comparisons")
        for metric in sorted(set(fresh) | set(base)):
            if single_core and ((dop_of(metric) or 1) > 1 or
                                ("speedup" in metric.lower() and
                                 "not_meaningful" not in metric.lower())):
                print(f"  {metric:44s} skipped (speedups not meaningful)")
                continue
            if metric not in fresh or metric not in base:
                side = "baseline" if metric not in fresh else "fresh run"
                print(f"  {metric:44s} only in {side}")
                continue
            b, f = base[metric], fresh[metric]
            direction = classify(metric)
            if b == 0:
                verdict = "new" if f != 0 else "ok"
                print(f"  {metric:44s} {b:12.4f} -> {f:12.4f}   (baseline 0)")
                if direction == "lower" and f > 0:
                    regressions.append((name, metric, b, f, float("inf")))
                    table.append(f"| {name} | {metric} | {b:.4g} | {f:.4g} "
                                 f"| n/a | **regression** |")
                continue
            rel = (f - b) / abs(b) * 100.0
            bad = (direction == "lower" and rel > threshold) or \
                  (direction == "higher" and rel < -threshold)
            good = (direction == "lower" and rel < -threshold) or \
                   (direction == "higher" and rel > threshold)
            flag = ""
            if bad:
                flag = f"  <-- REGRESSION (>{threshold:.0f}% worse)"
                regressions.append((name, metric, b, f, rel))
            elif good:
                flag = "  (improved)"
                improvements.append((name, metric, b, f, rel))
            elif direction != "info" and abs(rel) > threshold:
                flag = "  (large move, not gated)"
            print(f"  {metric:44s} {b:12.4f} -> {f:12.4f}  {rel:+7.1f}%{flag}")
            if direction != "info" and (bad or good or abs(rel) > threshold):
                verdict = "**regression**" if bad else \
                          ("improvement" if good else "noisy")
                table.append(f"| {name} | {metric} | {b:.4g} | {f:.4g} "
                             f"| {rel:+.1f}% | {verdict} |")

    print()
    if regressions:
        print(f"{len(regressions)} regression(s) beyond {threshold:.0f}%:")
        for name, metric, b, f, rel in regressions:
            print(f"  {name}: {metric}  {b:.4g} -> {f:.4g}")
    else:
        print(f"no regressions beyond {threshold:.0f}%")
    if improvements:
        print(f"{len(improvements)} improvement(s) beyond {threshold:.0f}%")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(f"### Perf smoke vs committed baselines "
                    f"(threshold {threshold:.0f}%)\n\n")
            if len(table) > 2:
                f.write("\n".join(table) + "\n\n")
            else:
                f.write("No metric moved beyond the threshold.\n\n")
            if regressions:
                f.write(f"**{len(regressions)} regression(s)** — see the "
                        "perf-smoke step log for the full listing.\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
