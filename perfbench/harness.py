"""Batch context for the benchmark worker: failure accounting, oracle checks,
spans and counts.

One BatchContext lives for one batch. Every check is one attempted operation;
an exception inside an `attempt` block, a timeout or an output outside its
tolerance is one failed operation. The traced variant records a span around
every call the workload makes into a levyarc layer (spans live here, in the
benchmark, never inside the library) and reads exact source-density counts
from CountingExpPowerDensity.
"""

from __future__ import annotations

import math
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import levyarc as la

import calib

# an operation slower than this counts as failed (a hang is a bug, ROADMAP aim 3)
OP_TIMEOUT_S = 60.0
# least gap between two calibrations inside a batch
CAL_EVERY_S = 0.15
# relative errors below double precision read as 16 digits
DIGITS_FLOOR = 1e-16


class CountingExpPowerDensity(la.ExpPowerDensity):
    """ExpPowerDensity that counts value() calls. A subclass, so every
    isinstance() branch in the library takes the same path as for the plain
    family and outputs stay bit-identical."""

    calls = 0

    def value(self, r: float) -> float:
        CountingExpPowerDensity.calls += 1
        return la.ExpPowerDensity.value(self, r)


class BatchContext:
    """Untraced batch: checks and failures only; spans cost one call."""

    def __init__(self, index: int):
        self.index = index
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digits: list[float] = []
        self.seconds = 0.0
        # calibration times taken inside the batch, and the wall time they
        # took, which the batch time excludes
        self.cals: list[float] = []
        self.cal_wall = 0.0
        self._last_cal = time.perf_counter()
        # calib.CAL_REF_S / mean calibration time in and around the batch
        self.speed = 1.0

    # -- failure accounting -------------------------------------------------

    def _fail(self, name: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"batch {self.index}: {name}: {detail}")

    def _sample_speed(self) -> None:
        """Calibrate between operation groups, at most every CAL_EVERY_S, so
        the batch's speed factor averages the host speed over its length."""
        t0 = time.perf_counter()
        if t0 - self._last_cal < CAL_EVERY_S:
            return
        self.cals.append(calib.calibrate(1))
        self._last_cal = time.perf_counter()
        self.cal_wall += self._last_cal - t0

    @contextmanager
    def attempt(self, name: str):
        """One operation group. An exception or a timeout inside it is one
        failed operation; checks made before it stay counted."""
        self._sample_speed()
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:  # any library error is a failed op, not a crash
            self.attempted += 1
            self._fail(name, "".join(traceback.format_exception_only(exc)).strip())
        dt = time.perf_counter() - t0
        if dt > OP_TIMEOUT_S:
            self.attempted += 1
            self._fail(name, f"took {dt:.1f}s (limit {OP_TIMEOUT_S:.0f}s)")

    def check(self, name: str, got: float | complex, ref: float | complex,
              tol: float, relative: bool) -> None:
        """Deterministic output against its oracle; feeds accuracy_digits."""
        self.attempted += 1
        err = abs(got - ref)
        if relative:
            err /= abs(ref)
        if not math.isfinite(err) or err > tol:
            self._fail(name, f"error {err:.3e} > {tol:.1e} (got {got!r}, want {ref!r})")
        self.digits.append(-math.log10(max(err, DIGITS_FLOOR)) if math.isfinite(err) else 0.0)

    def expect(self, name: str, ok: bool, detail: str) -> None:
        """Verdict-style output (exact)."""
        self.attempted += 1
        if not ok:
            self._fail(name, detail)

    # -- tracing hooks (no-ops here) ------------------------------------------

    def span(self, layer: str, metric: str | None = None, items: int = 1):
        return nullcontext()

    def count(self, metric: str, n: float, items: int = 1) -> None:
        pass

    def src_calls(self) -> int:
        return 0


class TracedBatchContext(BatchContext):
    """Batch with layer spans. Self time of a layer is the time inside its
    spans minus the time of spans nested in them."""

    def __init__(self, index: int):
        super().__init__(index)
        self.self_time: dict[str, float] = defaultdict(float)
        # metric -> [total, items]; a per-item value is total / items
        self.metrics: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, layer: str, metric: str | None = None, items: int = 1):
        parent = self._stack[-1][0] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        frame = [sid, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dt = t1 - t0
            self.self_time[layer] += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt
            self.spans[sid] = (sid, parent, layer, metric, t0 - self._t0, t1 - self._t0)
            if metric is not None:
                m = self.metrics[metric]
                m[0] += dt
                m[1] += items

    def count(self, metric: str, n: float, items: int = 1) -> None:
        m = self.metrics[metric]
        m[0] += n
        m[1] += items

    def src_calls(self) -> int:
        return CountingExpPowerDensity.calls
