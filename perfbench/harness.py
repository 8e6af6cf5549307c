"""Closed-loop op runner: one op at a time, each under a time limit
enforced in-process by a timer signal, with times given at a reference
host speed.

The host is shared: its speed flips by up to 1.6x within seconds and
drifts by up to 2x over minutes, in CPU time as much as in wall time,
and every op slows alike.  So the runner times a fixed pure-Python
reference loop (`reference_work`, the harness's own code, never the
program's) after every op and, from a timer signal, every `SAMPLE_S`
inside a running op, and divides each op's measured time by the host's
slowness while it ran: the median time of the reference loops timed
during the op, right after it and just before it, over `REFERENCE_S`,
the loop's time at the reference speed.  The time the loops take inside
an op is not counted as the op's.  An op's reported time is thus its
time on a host whose reference loop takes `REFERENCE_S`; a change that
makes the program faster lowers it by the same share.  The per-op limit
is counted in the same reference seconds, so an op that is cut off has
done the same amount of work whatever the host's speed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import signal
import statistics
import time
from collections import deque

import ladders

ERROR = "error"
TIMEOUT = "timeout"

# The reference loop's time at the reference speed, about its time on the
# 2-vCPU virtual machine the limits were set on, in a fast stretch.
REFERENCE_S = 0.00125
# Reference loops timed before an op that count towards its slowness.
SPEED_WINDOW = 7
# Wall seconds between reference loops inside a running op.
SAMPLE_S = 0.05


def reference_work() -> int:
    """Interpreter-bound work like the program's own: tuple keys, dict and
    set updates, sorting and string building (about 1.25 ms)."""
    counts: dict[tuple[int, int], int] = {}
    seen: set[tuple[int, int]] = set()
    for i in range(2700):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
    text = "".join(f"{a}{b}" for (a, b), _n in sorted(counts.items())[:200])
    return len(text) + len(seen)


class OpTimeout(BaseException):
    """Raised from the timer signal.  `cli.main` catches OSError, ValueError
    and KeyError, so this must not derive from Exception."""


class Runner:
    """Runs one op at a time under a per-op time limit, and keeps the
    reference-loop times that say how slow the host is."""

    def __init__(self, main):
        self.main = main
        self.armed = False
        self.reference: list[float] = []  # every reference-loop time, in order
        self.window: deque[float] = deque(maxlen=SPEED_WINDOW)
        self.raw_s = 0.0  # measured seconds of every op run, unscaled
        self.cut_s = 0.0  # the part of raw_s spent in ops cut off at the limit
        # the running op: its limit, start, in-op reference loops and the
        # time they took
        self.limit = 0.0
        self.start = 0.0
        self.samples: list[float] = []
        self.stolen = 0.0
        # told the seconds of each in-op reference loop (the tracer keeps
        # them out of the program's self times)
        self.on_stolen = None
        signal.signal(signal.SIGALRM, self._on_tick)
        for _ in range(2 * SPEED_WINDOW):
            self.calibrate()

    def _reference_time(self) -> float:
        # Timed with the collector off, so that the program's heap does not
        # lengthen the loop, and after an untimed run, so that the caches
        # the program left cold do not either.
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference_work()
            start = time.perf_counter()
            reference_work()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.reference.append(elapsed)
        return elapsed

    def calibrate(self) -> None:
        self.window.append(self._reference_time())

    def _on_tick(self, _signum, _frame):
        """Every SAMPLE_S inside an op: time a reference loop, and stop the
        op once its time at the reference speed reaches the limit."""
        if not self.armed:
            return
        tick = time.perf_counter()
        self.samples.append(self._reference_time())
        measured = tick - self.start - self.stolen
        stolen = time.perf_counter() - tick
        self.stolen += stolen
        if self.on_stolen is not None:
            self.on_stolen(stolen)
        if measured / self._slowness(list(self.window) + self.samples) >= self.limit:
            self.armed = False
            raise OpTimeout()

    @staticmethod
    def _slowness(times: list[float]) -> float:
        return statistics.median(times) / REFERENCE_S

    def slowness_since(self, mark: int) -> float:
        """The host's median slowness over the reference loops timed since
        `mark`, an earlier `len(self.reference)`: 1 at the reference speed,
        2 when the loop takes twice `REFERENCE_S`."""
        return self._slowness(self.reference[mark:] or list(self.window))

    def run(self, op: ladders.Op, limit: float) -> tuple[float, str, str]:
        """(reference seconds, status, detail) for one op; status is
        decided, undecided, wrong, error or timeout.  `limit` is in
        reference seconds."""
        out, err = io.StringIO(), io.StringIO()
        rc: int | None = None
        failure = ""
        timed_out = False
        before = list(self.window)
        self.limit, self.samples, self.stolen = limit, [], 0.0
        # every op starts from a collected heap, as in a fresh CLI process,
        # so garbage left by earlier ops does not lengthen its collections
        gc.collect()
        self.start = time.perf_counter()
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(list(op.argv))
        except OpTimeout:
            timed_out = True
        except Exception as exc:  # noqa: BLE001 - an escaping exception is the op's error
            failure = f"{type(exc).__name__}: {str(exc)[:120]}"
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        measured = time.perf_counter() - self.start - self.stolen
        self.raw_s += measured
        self.window.extend(self.samples)
        self.calibrate()
        if timed_out:
            self.cut_s += measured
            return limit, TIMEOUT, f"stopped at the {limit} s limit ({measured:.2f} s measured)"
        elapsed = measured / self._slowness(before + self.samples + [self.window[-1]])
        if failure:
            return elapsed, ERROR, failure
        if rc not in (0, 1):
            return elapsed, ERROR, f"exit {rc}: {err.getvalue().strip()[:120]}"
        try:
            status, detail = op.check(rc, out.getvalue())
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            status, detail = ladders.WRONG, f"unreadable output: {exc}"
        return elapsed, status, detail


def run_pass(runner: Runner, ops, limit: float, deadline: float | None = None, skip=frozenset()):
    """Run `ops` in order.  Ops in `skip` are recorded at the limit without
    running.  Stops early once `deadline` has passed.  Returns
    {op id: (reference seconds, status, detail)}."""
    results = {}
    for op in ops:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if op.id in skip:
            results[op.id] = (limit, TIMEOUT, "stopped at the limit in an earlier pass")
            continue
        results[op.id] = runner.run(op, limit)
    return results
