"""Probe rows for known failures: the three of ROADMAP item 2, plus
invert_near_atom, which the invert_screen workload ran into. They run only
in the traced run, after the timed batches, and never gate: each row records
the outcome and the time to that outcome, so a fix, or a new way of failing,
shows up without a failing run.

  char_fn_ex2_cos  char_fn of transform_triplet(EX2, cos_pi_half) at z = 1;
                   raises QuadratureNonConvergence at the parent
  cli_ups0_a1      levyarc transform --chain ups0,a1 on EX2, default grid;
                   exits 4 at the parent
  cli_a1_a2        levyarc transform --chain a1,a2 on EX2, default grid;
                   does not finish at the parent, so it runs under a time cap
  invert_near_atom invert_arcsine1 of the image of atoms at 0.5 and 2, at tail
                   points 1.996 and 1.998 (just below an atom); raises
                   QuadratureNonConvergence at the parent
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import levyarc as la

# wall-clock cap per CLI probe, child start-up included
CLI_CAP_S = 6.0
_CLI_SNIPPET = (
    "import json, sys, time\n"
    "from levyarc import cli\n"
    "t0 = time.perf_counter()\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(json.dumps({'exit': code, 's': time.perf_counter() - t0}))\n"
)


def _outcome(fn, *args) -> dict:
    """Time one in-process call to its outcome: ok or the error's type."""
    t0 = time.perf_counter()
    try:
        fn(*args)
        outcome = "ok"
    except la.LevyArcError as exc:
        outcome = type(exc).__name__
    return {"outcome": outcome, "s": time.perf_counter() - t0}


def _cli(chain: str, measure_path: str, out_dir: str) -> dict:
    """One CLI transform in a child process, killed at CLI_CAP_S. A finished
    call reports its own time, measured inside the child after its imports."""
    argv = [sys.executable, "-c", _CLI_SNIPPET, "transform", "--in", measure_path,
            "--chain", chain, "--out", out_dir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CLI_CAP_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"outcome": "timeout", "s": CLI_CAP_S}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"outcome": f"crash (exit {proc.returncode})", "s": time.perf_counter() - t0}
    row = json.loads(lines[-1])
    return {"outcome": f"exit {row['exit']}", "s": row["s"]}


def run_all(workdir: str) -> list[dict]:
    ex2_measure = la.fixture_catalog()["EX2"].measure
    path = os.path.join(workdir, "ex2.json")
    with open(path, "w") as fh:
        json.dump(la.to_json(ex2_measure), fh)
    ex2 = la.Triplet([[0.0]], ex2_measure, [0.0])
    atoms = la.arcsine1(la.half_line_measure(atoms=[(0.5, 1.0), (2.0, 1.0)]))
    rows = [dict(name="char_fn_ex2_cos",
                 **_outcome(la.char_fn, la.transform_triplet(ex2, "cos_pi_half"), [1.0])),
            dict(name="invert_near_atom", **_outcome(la.invert_arcsine1, atoms, (1.996, 1.998, 2)))]
    for name, chain in (("cli_ups0_a1", "ups0,a1"), ("cli_a1_a2", "a1,a2")):
        rows.append(dict(name=name, **_cli(chain, path, os.path.join(workdir, name))))
    return rows
