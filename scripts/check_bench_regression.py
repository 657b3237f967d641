#!/usr/bin/env python3
"""Perf-regression comparator for BENCH_runtime.json.

Diffs a fresh bench run against the committed bench/baseline.json and
fails (exit 1) when a guarded metric regresses past its noise tolerance,
so perf regressions fail CI instead of scrolling away in build logs.

Two classes of checks:

* Machine-independent (always enforced): top-1 agreement of the fast and
  int8 kernel tiers, the kernel-tier speed ratios from the single-thread
  model sweep, the co-hosting shared/separate ratio, and the tracing
  overhead percentage. Ratios of two numbers measured on the same machine
  in the same process transfer across hardware; their tolerances only
  have to absorb run-to-run scheduling noise.

* Absolute (enforced only when baseline sets "enforce_absolute": true):
  per-phase QPS floors and p99 ceilings. Off in the committed baseline —
  absolute throughput is a property of the machine, and CI runners are
  not the machine the baseline was measured on. Flip it on for a
  dedicated perf box with a locally refreshed baseline.

Refresh mode rewrites the baseline's measured sections from the current
run while preserving the tolerance/policy block:

    python3 scripts/check_bench_regression.py --refresh \
        --current BENCH_runtime.json --baseline bench/baseline.json
"""

import argparse
import json
import sys


DEFAULT_TOLERANCES = {
    # Absolute percentage-point drop allowed in top-1 agreement.
    "top1_pct_points": 2.0,
    # Relative drop allowed in kernel-tier / co-hosting ratios. Smoke
    # phases are sub-second, so ratios carry real scheduling noise.
    "ratio_rel_pct": 40.0,
    # Hard ceiling on flight-recorder overhead in percent of QPS.
    "tracing_overhead_pct_max": 25.0,
    # The lock-free request queue must not lose to the mutex oracle
    # (tests/mutex_queue_oracle.h) on the most contended
    # producersxconsumers sweep point. Same-process A/B of the same
    # driver, so no extra noise scale: a ratio under 1.0 means the ring
    # no longer earns its complexity.
    "queue_lockfree_over_mutex_min": 1.0,
    # Absolute floors for the int8 conv acceptance criteria, enforced only
    # when a baseline sets them non-zero (the conv_xl baseline does; the
    # dense baseline leaves them at 0 = disabled). int8_over_fast_min is
    # checked on the batch-1 model-sweep row — the memory-bound per-call
    # point the int8 tier exists for; int8_top1_min floors the He-init
    # top-1 agreement of int8 vs exact.
    "int8_over_fast_min": 0.0,
    "int8_top1_min": 0.0,
    # SLO observability guard (the "slo" section). Goodput under the
    # bench's generous objective must stay ~1.0 — healthy serving has no
    # business violating a 250 ms SLO. (The histogram's p99 accuracy is a
    # deterministic ctest: MetricsTest in tests/runtime_test.cc.)
    "slo_goodput_min": 0.95,
    # Only used when enforce_absolute is true.
    "qps_rel_pct": 30.0,
    "p99_rel_pct": 75.0,
}

# Measured sections copied wholesale by --refresh; everything else in the
# baseline (net, tolerances, enforce_absolute) is policy and is kept.
MEASURED_SECTIONS = (
    "model_sweep",
    "registry",
    "top1_agreement",
    "trained_agreement",
    "phases",
    "cohost",
    "queue",
    "tracing",
    "slo",
)


class Comparator:
    def __init__(self, tolerances):
        self.tol = dict(DEFAULT_TOLERANCES)
        self.tol.update(tolerances or {})
        self.failures = []
        self.checked = 0

    def check_min(self, name, current, floor, context=""):
        self.checked += 1
        if current < floor:
            self.failures.append(
                f"{name}{context}: {current:.4f} below floor {floor:.4f}")

    def check_max(self, name, current, ceiling, context=""):
        self.checked += 1
        if current > ceiling:
            self.failures.append(
                f"{name}{context}: {current:.4f} above ceiling {ceiling:.4f}")


def index_by(rows, *keys):
    return {tuple(row[k] for k in keys): row for row in rows}


def compare(baseline, current):
    comp = Comparator(baseline.get("tolerances"))
    tol = comp.tol

    if baseline.get("net") and current.get("net") != baseline.get("net"):
        comp.failures.append(
            "net mismatch: baseline measured %r, current run is %r "
            "(run with MILR_NET=%s or refresh the baseline)"
            % (baseline["net"], current.get("net"), baseline["net"]))
        return comp

    # --- top-1 agreement: accuracy of the fast/int8 tiers is not allowed
    # to drift, noise tolerance is a couple of percentage points.
    base_top1 = baseline.get("top1_agreement", {})
    cur_top1 = current.get("top1_agreement", {})
    for key in ("fast_vs_exact", "int8_vs_exact"):
        if key in base_top1 and key in cur_top1:
            floor = base_top1[key] - tol["top1_pct_points"] / 100.0
            comp.check_min(f"top1_agreement.{key}", cur_top1[key], floor)
    # Absolute int8 top-1 floor — the quantized tier's hard acceptance
    # bar (>= 0.99 in the conv_xl baseline), independent of drift in the
    # baseline's own measurement.
    if tol["int8_top1_min"] > 0 and "int8_vs_exact" in cur_top1:
        comp.check_min("top1_agreement.int8_vs_exact (absolute)",
                       cur_top1["int8_vs_exact"], tol["int8_top1_min"])

    # --- trained-net agreement: same floors as the He-init sweep, using
    # the checkpoint actually produced by training in this run.
    base_trained = baseline.get("trained_agreement", {})
    cur_trained = current.get("trained_agreement", {})
    for key in ("fast_vs_exact", "int8_vs_exact", "conv_fast_vs_exact",
                "conv_int8_vs_exact"):
        if key in base_trained and key in cur_trained:
            floor = base_trained[key] - tol["top1_pct_points"] / 100.0
            comp.check_min(f"trained_agreement.{key}", cur_trained[key],
                           floor)

    # --- kernel-tier ratios from the single-thread model sweep.
    ratio_scale = 1.0 - tol["ratio_rel_pct"] / 100.0
    base_sweep = index_by(baseline.get("model_sweep", []), "batch")
    for row in current.get("model_sweep", []):
        base = base_sweep.get((row["batch"],))
        if base is None:
            continue
        for key in ("fast_over_exact", "int8_over_fast"):
            comp.check_min(f"model_sweep.{key}", row[key],
                           base[key] * ratio_scale,
                           context=f" (batch={row['batch']})")
    # Absolute int8-speedup floor at batch 1 — the int8 conv tier's perf
    # acceptance bar (>= 1.5x over fast fp32 per call in the conv_xl
    # baseline). Checked against the current run alone so a slow baseline
    # cannot mask a miss.
    if tol["int8_over_fast_min"] > 0:
        for row in current.get("model_sweep", []):
            if row["batch"] == 1:
                comp.check_min("model_sweep.int8_over_fast (absolute)",
                               row["int8_over_fast"],
                               tol["int8_over_fast_min"],
                               context=" (batch=1)")

    # --- co-hosting: the shared host must stay competitive with split
    # engines on the same core budget.
    base_cohost = index_by(baseline.get("cohost", []), "models")
    for row in current.get("cohost", []):
        base = base_cohost.get((row["models"],))
        if base is None:
            continue
        comp.check_min("cohost.shared_over_separate",
                       row["shared_over_separate"],
                       base["shared_over_separate"] * ratio_scale,
                       context=f" (models={row['models']})")

    # --- request queue: lockfree vs mutex on the contended sweep point.
    # Current-run-only: both kinds are measured in the same process by the
    # same driver, so the ratio needs no baseline to compare against —
    # just the absolute floor. The bench
    # omits the field when no sweep point fits the host's hardware
    # threads (a 1-core runner cannot produce real contention), so the
    # presence check below doubles as the skip.
    cur_queue = current.get("queue", {})
    if "contended_lockfree_over_mutex" in cur_queue:
        comp.check_min("queue.contended_lockfree_over_mutex",
                       cur_queue["contended_lockfree_over_mutex"],
                       tol["queue_lockfree_over_mutex_min"])

    # --- flight recorder: enabled-tracing overhead stays bounded.
    cur_tracing = current.get("tracing", {})
    if "overhead_pct" in cur_tracing:
        comp.check_max("tracing.overhead_pct", cur_tracing["overhead_pct"],
                       tol["tracing_overhead_pct_max"])

    # --- SLO observability: goodput under the generous bench objective
    # and the incident drill. Both current-run-only (same-process
    # measurements; no baseline drift to absorb).
    cur_slo = current.get("slo", {})
    if "goodput" in cur_slo:
        comp.check_min("slo.goodput", cur_slo["goodput"],
                       tol["slo_goodput_min"])
    if "incidents_opened" in cur_slo:
        comp.check_min("slo.incidents_opened",
                       float(cur_slo["incidents_opened"]), 1.0)
        comp.check_max("slo.incidents_open",
                       float(cur_slo.get("incidents_open", 0)), 0.0)
        if not cur_slo.get("incident_recovered", False):
            comp.checked += 1
            comp.failures.append(
                "slo.incident_recovered: the incident drill's quarantine "
                "did not close recovered")

    # --- absolute QPS/p99, opt-in for pinned perf hardware only.
    if baseline.get("enforce_absolute"):
        qps_scale = 1.0 - tol["qps_rel_pct"] / 100.0
        p99_scale = 1.0 + tol["p99_rel_pct"] / 100.0
        base_phases = index_by(baseline.get("phases", []),
                               "kernel", "max_batch")
        for row in current.get("phases", []):
            base = base_phases.get((row["kernel"], row["max_batch"]))
            if base is None:
                continue
            ctx = f" (kernel={row['kernel']}, max_batch={row['max_batch']})"
            comp.check_min("phases.qps", row["qps"],
                           base["qps"] * qps_scale, context=ctx)
            comp.check_max("phases.p99_ms", row["p99_ms"],
                           base["p99_ms"] * p99_scale, context=ctx)
        if "qps_disabled" in cur_tracing and "tracing" in baseline:
            comp.check_min("tracing.qps_disabled",
                           cur_tracing["qps_disabled"],
                           baseline["tracing"]["qps_disabled"] * qps_scale)

    return comp


def refresh(baseline, current, baseline_path):
    for section in MEASURED_SECTIONS:
        if section in current:
            baseline[section] = current[section]
    baseline["net"] = current.get("net", baseline.get("net"))
    baseline.setdefault("enforce_absolute", False)
    baseline.setdefault("tolerances", dict(DEFAULT_TOLERANCES))
    with open(baseline_path, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"refreshed {baseline_path} from current run "
          f"(net={baseline['net']}, enforce_absolute="
          f"{str(baseline['enforce_absolute']).lower()})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", default="BENCH_runtime.json",
                        help="fresh bench output (default: %(default)s)")
    parser.add_argument("--baseline", default="bench/baseline.json",
                        help="committed baseline (default: %(default)s)")
    parser.add_argument("--refresh", action="store_true",
                        help="rewrite the baseline's measured sections "
                             "from the current run instead of comparing")
    args = parser.parse_args()

    with open(args.current) as f:
        current = json.load(f)
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except FileNotFoundError:
        if args.refresh:
            baseline = {}
        else:
            print(f"error: baseline {args.baseline} not found "
                  f"(generate with --refresh)", file=sys.stderr)
            return 2

    if args.refresh:
        refresh(baseline, current, args.baseline)
        return 0

    comp = compare(baseline, current)
    if comp.failures:
        print(f"PERF REGRESSION: {len(comp.failures)} of {comp.checked} "
              f"checks failed vs {args.baseline}:")
        for failure in comp.failures:
            print(f"  FAIL  {failure}")
        return 1
    print(f"bench comparison OK: {comp.checked} checks passed vs "
          f"{args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
