"""One benchmark process: set up a workload, then run its batches.

Started by run.py in a fresh process with PYTHONPATH pointing at the
checkout's src/, single-threaded BLAS and LEVY_ARCSINE_THREADS unset. It
prints READY once its inputs are built (the parent times process start to
that line as set-up), then one JSON line with its results.

Modes:
  probe  set up, run the first (cold) batch, exit
  run    cold batch, then warm batches until --seconds have passed
  trace  the same with layer spans: every warm batch runs twice with the same
         arguments, untraced on plain inputs and traced on counting inputs;
         then the cold arguments again (the memo self-check) and the probe
         rows for known failures
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import levyarc as la

import calib
import harness
import probes
from workloads import WORKLOADS, il_finish, il_oracles

SECONDS_TO = {"ms": 1e3, "us": 1e6}


def _scale(metric: str) -> float:
    """Spans record seconds; a metric named like point_ms or us_per_path
    reports milliseconds or microseconds."""
    for token in metric.split(".")[1].split("_"):
        if token in SECONDS_TO:
            return SECONDS_TO[token]
    return 1.0


class Runner:
    """Runs batches with a calibration between consecutive ones; a batch's
    speed factor uses the calibrations right before, inside and right after
    it, and its time excludes the ones inside."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        self.prev = calib.calibrate()

    def batch(self, ctx_cls, inp: dict, i: int):
        ctx = ctx_cls(i)
        t0 = time.perf_counter()
        self.wl.batch(ctx, inp, self.wl.params(self.seed, i))
        ctx.seconds = time.perf_counter() - t0 - ctx.cal_wall
        nxt = calib.calibrate()
        ctx.speed = calib.CAL_REF_S / statistics.mean([self.prev, *ctx.cals, nxt])
        self.prev = nxt
        return ctx


def _summary(ctx) -> dict:
    return {"i": ctx.index, "s": ctx.seconds, "s_ref": ctx.seconds * ctx.speed,
            "attempted": ctx.attempted, "failed": ctx.failed,
            "digits": min(ctx.digits) if ctx.digits else None}


def _src_evals(ctx) -> dict:
    return {m: v for m, v in ctx.metrics.items() if m.startswith("measures.src_evals")}


def _layer_metrics(cold, traced: list, untraced: list, inp: dict, setup_speed: float) -> dict:
    """Per-layer values: medians over traced warm batches of per-item values
    (times at reference speed) and of each layer's self-time share. Counts
    come from the cold batch, whose arguments depend only on the seed, so two
    traced runs with one seed report identical counts."""
    out: dict[str, float] = {}
    names = sorted({m for ctx in traced for m in ctx.metrics})
    for m in names:
        scale = _scale(m)
        if scale == 1.0:
            total, items = cold.metrics[m]
            out[m] = total / items if items else 0.0
            continue
        vals = [ctx.metrics[m][0] / ctx.metrics[m][1] * ctx.speed
                for ctx in traced if ctx.metrics[m][1]]
        out[m] = statistics.median(vals) * scale
    shares: dict[str, list[float]] = {}
    for ctx in traced:
        covered = 0.0
        for layer, t in ctx.self_time.items():
            shares.setdefault(layer, []).append(t / ctx.seconds)
            covered += t
        shares.setdefault("bench", []).append(1.0 - covered / ctx.seconds)
    for layer, vals in shares.items():
        # a layer missing from some batches contributed 0 there
        vals = vals + [0.0] * (len(traced) - len(vals))
        out[f"{layer}.share"] = statistics.median(vals)
    if "polar_build_s" in inp:
        out["measures.polar_build_ms"] = inp["polar_build_s"] * setup_speed * 1e3
    p50_t = statistics.median(ctx.seconds * ctx.speed for ctx in traced)
    p50_u = statistics.median(ctx.seconds * ctx.speed for ctx in untraced)
    out["trace.overhead_pct"] = (p50_t / p50_u - 1.0) * 100.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(la.__file__).startswith(src + os.sep):
        print(f"levyarc imported from {la.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    inp = wl.build(args.seed, False, args.workdir)
    counted = wl.build(args.seed, True, args.workdir) if args.mode == "trace" else None
    print("READY", flush=True)
    result: dict = {"mode": args.mode, "tail_pct": wl.tail_pct,
                    "setup_cal_s": calib.calibrate(3), "failures": []}

    # oracle tables and the pooled ecf live outside set-up and outside timing
    if args.workload == "integral_law":
        inp["oracles"] = il_oracles(inp)
        if counted is not None:
            counted["oracles"] = inp["oracles"]
            counted["pool"] = inp["pool"]

    runner = Runner(wl, args.seed)
    if args.mode == "trace":
        cold = runner.batch(harness.TracedBatchContext, counted, 0)
    else:
        cold = runner.batch(harness.BatchContext, inp, 0)
    ctxs = [cold]
    traced, untraced = [], []
    if args.mode != "probe":
        t_end = time.perf_counter() - cold.seconds + args.seconds
        i = 1
        while time.perf_counter() < t_end:
            ctx = runner.batch(harness.BatchContext, inp, i)
            ctxs.append(ctx)
            untraced.append(ctx)
            if args.mode == "trace":
                ctx = runner.batch(harness.TracedBatchContext, counted, i)
                ctxs.append(ctx)
                traced.append(ctx)
            i += 1

    finish = harness.BatchContext(-1)
    if args.mode != "probe" and args.workload == "integral_law":
        result["ecf_distance_max"] = il_finish(finish, inp)
    if args.mode == "trace":
        again = runner.batch(harness.TracedBatchContext, counted, 0)
        ctxs.append(again)
        finish.expect("memo self-check", _src_evals(again) == _src_evals(cold),
                      "cold and warm batches on the same arguments counted different "
                      "source evaluations")
        layers = _layer_metrics(cold, traced, untraced, inp,
                                calib.CAL_REF_S / result["setup_cal_s"])
        layers["simulate.ecf_distance.max"] = result.get("ecf_distance_max", 0.0)
        result["layers"] = layers
        result["warm_batches"] = len(traced)
        result["probes"] = probes.run_all(args.workdir)
        result["spans"] = [list(s) for s in traced[0].spans] if traced else []
    ctxs.append(finish)

    for ctx in ctxs:
        result["failures"].extend(ctx.failures)
    result["batches"] = [_summary(c) for c in ctxs if c is not finish]
    result["untraced_warm"] = [c.seconds * c.speed for c in untraced]
    result["untraced_warm_raw"] = [c.seconds for c in untraced]
    result["attempted"] = sum(c.attempted for c in ctxs)
    result["failed"] = sum(c.failed for c in ctxs)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
