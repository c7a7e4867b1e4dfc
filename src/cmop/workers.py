"""Forked worker processes pinned to CPUs, and the sweep's split over them.

:func:`_run_groups` runs groups of work items, the first in this process
and each other one in a forked child pinned to its own CPU, when
:func:`_can_fork` holds. A sweep uses it for its steps (:func:`_lpt_groups`
over :func:`_step_cost`, gated by the BLAS bounds in
:func:`_sweep_workers`); the JSON reader and writer use it for the matrices
of large files.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import threading

from .errors import WorkerError
from .objective import Precomputed, ProblemInstance


# A sweep runs in worker processes only while every BLAS call of its solves
# stays on one thread. A threaded call leaves OpenBLAS worker threads
# spinning after it, and two processes doing that on two cores thrash: a
# 4-step pgd sweep at 120 x 64 x 64 ran 2-16x slower forked. OpenBLAS 0.3.31
# starts threads for a matrix product of 2^18 real multiply-adds (a complex
# one counts four) and for an inner product of more than 10^4 elements; both
# were read off the thread count of a freshly forked process, where OpenBLAS
# has stopped its pool. The real-stacked Gram product runs on one thread a
# little beyond 2^18 and the other real products up to at least 8 x 10^5, so
# the first bound is conservative for them.
_SERIAL_BLAS_MACS = 2**18
_SERIAL_BLAS_DOT = 10_000


def _blas_sizes(method: str, m: int, n: int, k: int) -> tuple[int, int]:
    """The largest matrix product of one solve of ``method``, in real
    multiply-adds, and its longest inner product, in elements."""
    if method == "real-augmented":
        # (2N x 2M)(2M x 2N) and (2N x 2M)(2M x K) once per solve,
        # (2N x 2N)(2N x K) per iteration; inner products over 2MK and 2NK.
        return 4 * n * max(2 * m * n, m * k, n * k), 2 * k * max(m, n)
    # (N x N)(N x K) per iteration; inner products over MK and NK entries.
    return 4 * n * n * k, k * max(m, n)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _can_fork() -> bool:
    """Whether work may be split over forked children pinned to CPUs, as
    :func:`_run_groups` runs them: fork and the CPU affinity calls exist,
    no other Python thread is alive (a child would inherit its locks in
    whatever state they are in) and at least two CPUs are usable."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_setaffinity")
        and threading.active_count() == 1
        and _usable_cpus() >= 2
    )


def _sweep_workers(instance: ProblemInstance, method: str, steps: int) -> int:
    """Processes a sweep of ``steps`` resolved steps runs in: one (this
    process) unless :func:`_can_fork`, or when a solve would start BLAS
    threads, or when there is only one step; else one per CPU, at most one
    per step."""
    macs, dot = _blas_sizes(method, instance.m, instance.n, instance.k)
    if not _can_fork() or macs >= _SERIAL_BLAS_MACS or dot > _SERIAL_BLAS_DOT:
        return 1
    return max(1, min(_usable_cpus(), steps))


def _step_cost(pre: Precomputed, alpha: float) -> float:
    """A fixed-step solve's iteration count with step ``alpha``, up to a
    factor that is the same for every step on ``pre``.

    With x = alpha L and q = lambda_min / L (lambda_min clamped at 0),
    gradient descent contracts by max(|1 - x|, 1 - x q) per iteration, so
    it takes about 1 / min(1 - |1 - x|, x q) iterations. For x < 2 that is
    max(1/x, q / (2 - x)) / q, and the cost is the numerator: 1/x up to
    x = 1, which covers every step of the projected method's interval
    (0, 1/L), then rising again towards x = 2 (unless q = 0). A step at or
    beyond 2/L diverges within a few iterations and costs 1/x.
    """
    x = alpha * pre.lipschitz
    if x >= 2.0:
        return 1.0 / x
    q = max(pre.lambda_min, 0.0) / pre.lipschitz
    return max(1.0 / x, q / (2.0 - x))


def _lpt_groups(costs: list[float], workers: int) -> list[list[int]]:
    """Longest-processing-time-first split of items 0 .. len(costs) - 1 into
    ``workers`` groups: item by item, costliest first (ties by index), each
    joins the group with the least cost so far (ties by group index). Each
    group lists its items in index order."""
    groups: list[list[int]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    for i in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        g = min(range(workers), key=lambda g: (loads[g], g))
        groups[g].append(i)
        loads[g] += costs[i]
    return [sorted(group) for group in groups]


def _run_groups(groups: list[list[int]], run_group, valid) -> list:
    """``run_group(group)`` for every group, in group order: the first
    group runs in this process, each other one in a forked child, whose
    result must pass ``valid(result, group)``. On any error the children
    still running are killed, and every child is reaped with its pipe
    closed.

    With more than one group, group g runs alone on the g-th usable CPU in
    ascending order (modulo their number), this process only until its
    group is done. On a 2-vCPU VM the scheduler was seen to keep an
    unpinned forked child on its parent's CPU, where two processes were no
    faster than one.
    """
    cpus = sorted(os.sched_getaffinity(0)) if len(groups) > 1 else []

    def work(g: int):
        if cpus:
            os.sched_setaffinity(0, {cpus[g % len(cpus)]})
        return run_group(groups[g])

    children = []  # (pid, read end of its pipe, group)
    try:
        for g in range(1, len(groups)):
            pid, fd = _fork(lambda g=g: work(g), [c[1] for c in children])
            children.append((pid, fd, groups[g]))
        try:
            results = [work(0)]
        finally:
            if cpus:
                os.sched_setaffinity(0, cpus)
        while children:
            results.append(_collect(*children.pop(0), valid))
        return results
    finally:
        for pid, fd, _ in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(work, inherited: list[int]) -> tuple[int, int]:
    """Run ``work()`` in a forked child that sends its result as JSON over
    a pipe; returns (pid, read end). The child closes the ``inherited`` read
    ends of earlier children, never prints, and leaves through os._exit on
    every path, so it never returns into the caller's stack or flushes
    buffers it inherited. It exits 1 after sending an exception that
    escapes ``work``: pickled, or as repr() if it does not pickle."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in (read_fd, *inherited):
                os.close(fd)
            try:
                payload, ok = json.dumps(work()).encode("ascii"), True
            except BaseException as exc:  # sent to the parent, never re-raised here
                try:
                    payload = pickle.dumps(exc)
                    pickle.loads(payload)  # the parent must be able to load it
                except Exception:
                    payload = repr(exc).encode("ascii", "replace")
                ok = False
            view = memoryview(payload)
            while view:
                view = view[os.write(write_fd, view):]
            code = 0 if ok else 1
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _collect(pid: int, fd: int, group: list[int], valid) -> list:
    """Read a child's result to the end of its pipe, reap it and check that
    it exited 0 and sent a JSON result that passes ``valid(result,
    group)``. An exception the child sent is raised here, caused by a
    WorkerError that names the child."""
    try:
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    where = f"worker process {pid}"
    code = os.waitstatus_to_exitcode(status)
    if code == 1:
        try:
            exc = pickle.loads(data)  # written by our own fork, not by a stranger
        except Exception:
            exc = None
        if isinstance(exc, BaseException):
            raise exc from WorkerError(f"{where} raised {type(exc).__name__}")
    if code != 0:
        detail = data.decode("ascii", "replace")[-300:]
        raise WorkerError(f"{where} exited with status {code}" + (f": {detail}" if detail else ""))
    try:
        result = json.loads(data)
    except ValueError:
        result = None
    if not valid(result, group):
        raise WorkerError(f"{where} sent an invalid result ({len(data)} bytes)")
    return result
