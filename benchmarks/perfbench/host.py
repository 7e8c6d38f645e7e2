"""Host fingerprint and process measurements for benchmark records.

Everything here reads ``/proc`` or the interpreter; nothing is tuned.  In
particular the BLAS libraries mapped into the process are listed as found,
with the one numpy links (under ``numpy.libs``) marked, and the OS thread
count of the parent and of every live pool worker is recorded as it is —
so a thread cap that reaches the wrong library shows in the record.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
from pathlib import Path

import numpy
import scipy

from repro import knobs

__all__ = [
    "blas_libraries",
    "fingerprint",
    "git_commit",
    "peak_rss_mb",
    "physical_cores",
    "stop_resource_tracker",
    "thread_count",
    "worker_threads",
]

_BLAS_MARKERS = ("blas", "lapack", "mkl", "blis")


def physical_cores() -> int | None:
    """Distinct (physical id, core id) pairs in ``/proc/cpuinfo``."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    cores = set()
    physical = core = None
    for line in text.splitlines() + [""]:
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "physical id":
            physical = value.strip()
        elif key == "core id":
            core = value.strip()
        elif not key and core is not None:
            cores.add((physical, core))
            physical = core = None
    return len(cores) or None


def thread_count(pid: int | str = "self") -> int | None:
    """OS threads of one process (``Threads:`` in ``/proc/<pid>/status``)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def worker_threads() -> dict[int, int | None]:
    """Thread count of every live child process (the pool workers)."""
    return {child.pid: thread_count(child.pid) for child in multiprocessing.active_children()}


def blas_libraries() -> list[dict]:
    """BLAS/LAPACK shared objects mapped into this process, numpy's marked."""
    try:
        lines = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = []
    for line in lines:
        parts = line.split(maxsplit=5)
        if len(parts) < 6:
            continue
        path = parts[5].strip()
        name = Path(path).name.lower()
        # Shared libraries only: scipy's cpython extension wrappers
        # (``_fblas``, ``cython_blas``) are not BLAS implementations.
        if ".so" not in name or ".cpython-" in name:
            continue
        if any(marker in name for marker in _BLAS_MARKERS) and path not in paths:
            paths.append(path)
    return [{"path": path, "numpy": "numpy.libs" in path} for path in paths]


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref:"):
        return head
    ref = head.split(None, 1)[1]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    for line in packed:
        sha, _, name = line.partition(" ")
        if name.strip() == ref:
            return sha
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB.

    ``RUSAGE_CHILDREN`` only covers children that have exited and been
    waited for, so call this after the worker pools are closed.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker if this run started one.

    Creating shared memory (the worker pool's segments) starts the tracker as
    a child process that otherwise outlives the benchmark by a moment.
    ``_stop`` is the private hook the standard library itself uses for this.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def fingerprint(root: Path, seed: int) -> dict:
    """Host, toolchain and input identity of one run."""
    return {
        "physical_cores": physical_cores(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
        "seed": seed,
        "repro_env": {
            knob.name: knobs.get_raw(knob.name)
            for knob in knobs.all_knobs()
            if knobs.get_raw(knob.name) is not None
        },
    }
