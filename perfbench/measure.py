"""Statistics, process-tree resource accounting and run provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

__all__ = ["percentile", "median", "tail", "TreeUsage", "peak_rss_mb",
           "provenance"]

#: Percentiles a ``*_tail_*`` metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def tail(values) -> tuple[float | None, float | None]:
    """``(q, value)``: the highest ladder percentile with at least ten
    samples beyond it, or ``(None, None)`` when there are too few."""
    best = (None, None)
    for q in TAIL_LADDER:
        if len(values) * (1.0 - q / 100.0) >= 10.0:
            best = (q, percentile(values, q))
    return best


def _rusage_cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def proc_cpu_s(pid: int) -> float:
    """CPU seconds of a live process and its reaped children (/proc)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    # utime, stime, cutime, cstime are fields 14-17 (1-based).
    return sum(int(v) for v in fields[11:15]) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class TreeUsage:
    """CPU of this process, its reaped children and watched live
    processes, between :meth:`start` and :meth:`stop`."""

    def __init__(self, watched_pids: tuple[int, ...] = ()) -> None:
        self.watched = tuple(watched_pids)
        self.parent_cpu_s = 0.0
        self.children_cpu_s = 0.0
        self.watched_cpu_s = 0.0

    def _sample(self) -> tuple[float, float, float]:
        return (_rusage_cpu(resource.RUSAGE_SELF),
                _rusage_cpu(resource.RUSAGE_CHILDREN),
                sum(proc_cpu_s(pid) for pid in self.watched))

    def start(self) -> None:
        self._begin = self._sample()

    def stop(self) -> None:
        end = self._sample()
        self.parent_cpu_s, self.children_cpu_s, self.watched_cpu_s = (
            e - b for e, b in zip(end, self._begin))

    @property
    def cpu_s(self) -> float:
        return self.parent_cpu_s + self.children_cpu_s + self.watched_cpu_s


def peak_rss_mb(watched_pids: tuple[int, ...] = ()) -> float:
    """Peak resident set of the largest process in the tree, in MB."""
    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0]
    peaks.extend(proc_peak_rss_mb(pid) for pid in watched_pids)
    return max(peaks)


def _git_commit(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(src: Path) -> str:
    """SHA-256 over every ``*.py`` path and content under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path, *, workload: str, seed: int, seconds: float,
               traced: bool, params: dict) -> dict:
    """Where and how a result was measured."""
    import numpy

    return {
        "git_commit": _git_commit(root),
        "src_digest": source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "params": params,
        "argv": sys.argv[1:],
    }
