"""Peak resident memory of a process tree, pool workers included.

``getrusage(RUSAGE_CHILDREN)`` does not see the workers of a process pool
(they are the grandchildren of the benchmark, reaped by the repetition
process), so the peak is read from ``/proc`` instead: a sampler thread
walks the tree below the watched process every ``interval`` seconds and
keeps each process's own high-water mark (``VmHWM``).  The tree's peak is
the sum of those per-process peaks.  A process is counted once it has
been sampled; the watched process reports its own peak on exit, since a
process that has exited can no longer be read.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            kids += [int(k) for k in (task / "children").read_text().split()]
    except OSError:
        pass
    return kids


def peak_kib(pid) -> int:
    """``VmHWM`` of ``pid`` (or ``"self"``) in KiB; 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreePeak:
    """Samples the peak resident set of ``pid`` and its descendants."""

    def __init__(self, pid: int, interval: float = 0.02) -> None:
        self.pid = pid
        self.interval = interval
        self.peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "TreePeak":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(self.interval):
                return

    def sample(self) -> None:
        pending = [self.pid]
        while pending:
            pid = pending.pop()
            peak = peak_kib(pid)
            if peak > self.peaks.get(pid, 0):
                self.peaks[pid] = peak
            pending += _children(pid)

    def total_mib(self, own_peak_kib: int = 0) -> float:
        """Sum of per-process peaks; ``own_peak_kib`` is the root's final."""
        peaks = dict(self.peaks)
        peaks[self.pid] = max(peaks.get(self.pid, 0), own_peak_kib)
        return sum(peaks.values()) / 1024.0
