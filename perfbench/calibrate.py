"""CPU speed calibration and the collector clock.

The machines this benchmark runs on are shared, and their CPU speed drifts by
up to 2x within seconds, while the work of a step stays the same. So a fixed
unit of pure-Python work (SHA3 of short messages, dict inserts, a sort, int
arithmetic: the operations fission_sim spends its time in) runs right before
every step, and a step's time outside the garbage collector is scaled by
REFERENCE_MS over the unit times around it. Collector time is kept as
measured: walking a large heap is bound by memory, which drifts far less
than the CPU speed (scaling it by the unit made it noisier, not steadier). The
results read as milliseconds on a reference CPU on which one unit takes
REFERENCE_MS; raw wall and collector times stay in the result file. The unit
does not call fission_sim, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import hashlib
import time

REFERENCE_MS = 5.0
UNIT_ROUNDS = 1500


def unit() -> float:
    """Seconds one calibration unit takes now.

    The collector is off meanwhile: a collection the unit's allocations set
    off would cost time in proportion to the program's heap, not the CPU's
    speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        acc = 0
        for i in range(UNIT_ROUNDS):
            h = hashlib.sha3_256(i.to_bytes(8, "big") * 8).digest()
            table[h] = (i, h[:4])
            acc += int.from_bytes(h[:8], "big") % 7
        sorted(table.items())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(unit_seconds: float) -> float:
    """Factor that turns wall seconds measured at this speed into reference seconds."""
    return REFERENCE_MS / 1000.0 / unit_seconds


class GcClock:
    """Collector time and full collections, read through ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._start = now
            return
        self.seconds += now - self._start
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)
