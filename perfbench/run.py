"""Oracle-checked benchmark for levyarc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; levyarc is imported from its src/. Every
process this starts is fresh and single-threaded: OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS are 1 and LEVY_ARCSINE_THREADS is unset. The seed only
shapes the generated inputs; the library never sees it.

--trace 0 runs COLD_PROBES short processes (set-up plus the first batch)
and one measuring process, and reports the end-to-end metrics of
BENCHMARK.json. --trace 1 runs one traced process and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
operation matched its oracle; it is 2 when the checkout has no levyarc
sources. A full record (environment stamp, batch times, probe rows, spans)
goes to .bench_work/.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import calib

HERE = os.path.dirname(os.path.abspath(__file__))

# short processes (set-up plus the cold batch) per untraced run, besides the
# measuring one: set-up and cold-batch times are medians over all of them
COLD_PROBES = 4
DEADLINE_S = 170.0
WORK = ".bench_work"


class ChildFailed(Exception):
    pass


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("LEVY_ARCSINE_THREADS", None)
    env.update(PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def _spawn(args, mode: str, env: dict, workdir: str, deadline: float) -> dict:
    """Run one worker and return its result, with the seconds from process
    start to READY added, raw and at reference speed. The speed comes from
    calibrations right before the start (here) and right after READY (in
    the worker)."""
    cal_before = calib.calibrate(3)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or code != 0:
        raise ChildFailed(f"{mode} worker exited with {code} (first line {first.strip()!r})")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_raw_s"] = setup
    result["setup_s"] = setup * calib.CAL_REF_S / (0.5 * (cal_before + result["setup_cal_s"]))
    return result


def _env_stamp(root: str) -> dict:
    import scipy
    lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(), "src_lines": lines}


def _end_to_end(results: list) -> tuple[dict, dict]:
    """Times are at reference host speed (see calib.py); the raw wall times
    go to the record beside them. results holds every process started, the
    measuring one last."""
    setups = [r["setup_s"] for r in results]
    main = results[-1]
    tail_pct = main["tail_pct"]
    warm = main["untraced_warm"]
    colds = [r["batches"][0]["s_ref"] for r in results]
    digits = [b["digits"] for r in results for b in r["batches"] if b["digits"] is not None]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    tail = float(np.percentile(warm, tail_pct))
    values = {
        "setup_s": statistics.median(setups),
        "cold_batch_s": statistics.median(colds),
        "batch_s.p50": statistics.median(warm),
        "batch_s.tail": tail,
        "accuracy_digits": statistics.median(digits),
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    detail = {"warm_batches": len(warm), "tail_percentile": tail_pct,
              "warm_batches_beyond_tail": sum(1 for w in warm if w > tail),
              "setup_samples": setups, "cold_samples": colds,
              "raw_setup_samples": [r["setup_raw_s"] for r in results],
              "raw_cold_samples": [r["batches"][0]["s"] for r in results],
              "raw_batch_p50": statistics.median(main["untraced_warm_raw"]),
              "speed_factors": [b["s_ref"] / b["s"] for b in main["batches"]],
              "min_accuracy_digits": min(digits)}
    return values, detail


def _per_layer(result: dict) -> dict:
    values = dict(result["layers"])
    for row in result["probes"]:
        values[f"probe.{row['name']}_s"] = row["s"]
    values["probe.known_failures"] = sum(
        1 for row in result["probes"] if row["outcome"] not in ("ok", "exit 0"))
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()
    deadline = start + DEADLINE_S

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json in {root}: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "levyarc", "__init__.py")):
        print(f"no levyarc sources under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; known: {sorted(names)}", file=sys.stderr)
        return 2

    env = _child_env(root)
    run_dir = os.path.join(root, WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "env": _env_stamp(root)}
    try:
        if args.trace:
            res = _spawn(args, "trace", env, run_dir, deadline)
            results = [res]
            values = _per_layer(res)
            wanted = spec["per_layer"]
            record.update(layers=res["layers"], probes=res["probes"], spans=res["spans"],
                          warm_batches=res["warm_batches"])
        else:
            modes = ["probe"] * COLD_PROBES + ["run"]
            results = [_spawn(args, mode, env, run_dir, deadline) for mode in modes]
            values, detail = _end_to_end(results)
            wanted = spec["end_to_end"]
            record.update(detail=detail, batches=results[-1]["batches"])
    except ChildFailed as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    metrics = {}
    for m in wanted:
        # a per-layer metric the workload never reaches reads 0
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
    record.update(metrics=metrics, attempted=attempted, failed=failed, failures=failures)
    os.makedirs(os.path.join(root, WORK), exist_ok=True)
    out_path = os.path.join(root, WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(record["env"]))
    if not args.trace:
        print("detail " + json.dumps(record["detail"]))
    for row in record.get("probes", []):
        print(f"probe {row['name']}: {row['outcome']} after {row['s']:.3f} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
