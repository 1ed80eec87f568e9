"""Row shares: a step's rows split between the caller and forked workers.

Three steps run this way: featurizing a split's images
(``pipeline.extract_subject_features``), the score tensor
(``matching.build_score_tensor``) and the text of a score file
(``matching.save_scores_csv``).  Each step's rows are split into k
contiguous shares, one per usable CPU, with k = 1 below the step's own row
floor and where ``os.fork`` does not exist (:func:`n_shares`).
:func:`row_shares` forks one :class:`Worker` for each share but the first,
which the caller computes meanwhile.  Where a pipe or process cannot be
made, no more workers are forked, and the rows none took are left to the
caller, after the others.  Every worker is reaped before the step returns
or raises, and killed first if need be.

A worker runs only on the usable CPUs other than the caller's, when the
system tells both: the scheduler may otherwise leave it for its whole run
on the CPU of the caller, which computes a share at the same time.  It
hands its result back in one of two ways:

- rows of an array in memory shared with the caller (:func:`shared_array`,
  an anonymous ``MAP_SHARED`` mapping), which is then the step's result
  with no copy.  A worker that fails exits non-zero and prints nothing, and
  the caller computes its share again, in share order
  (:func:`compute_in_shares`), so an error is raised by the caller, as
  inline, for the first bad row in row order;
- bytes written into a pipe once they are all made, which the caller reads
  after the shares before it (the score file's text).

The workers are forked, not spawned: a spawned worker would import this
package and be sent its inputs, which costs more than a share saves.  A
fork also costs the caller: after it, the first write to each page the
caller held takes a page fault, so each step forks only past a row floor
measured for that step.  A worker only reads files, runs numpy (BLAS
included) and formats text, so it waits on no lock that another thread
of the caller could hold at the fork; a test forks every step with a
second thread running.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

import numpy as np

from .errors import CHUNK_SIZE

#: what a worker runs: its rows in, and the bytes to write into its pipe, if
#: any, out
Task = Callable[[range], Iterable[bytes] | None]


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _other_cpus() -> set[int] | None:
    """The usable CPUs other than the one the calling thread runs on, where
    the system tells both (Linux); None elsewhere, or when there is none."""
    try:
        stat = Path("/proc/thread-self/stat").read_bytes()
        here = int(stat.rsplit(b")", 1)[1].split()[36])  # field 39, the CPU
        others = os.sched_getaffinity(0) - {here}
    except (OSError, AttributeError, ValueError, IndexError):
        return None
    return others or None


def n_shares(most: int) -> int:
    """Into how many shares a step's rows are split: one per usable CPU and
    at most ``most``, the step's rows over its floor; one where
    ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(usable_cpus(), most))


def shared_array(shape: tuple[int, ...], k: int) -> np.ndarray:
    """A new float64 array of ``shape`` for a step split into ``k`` shares:
    in an anonymous ``MAP_SHARED`` mapping, which forked workers write into,
    when k > 1, and an ordinary array when k = 1."""
    if k == 1:
        return np.empty(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)


class Worker:
    """A forked process that runs ``task(rows)``, writes the bytes it
    returns into a pipe, and exits: 0 once it has written them all and
    closed the pipe, 1 when the task raises, printing nothing either way.
    It runs only on the CPUs ``cpus``, when given.  A pipe or process that
    cannot be made is an OSError, and leaves no process behind."""

    def __init__(self, task: Task, rows: range, cpus: set[int] | None) -> None:
        self.rows = rows
        read_end, write_end = os.pipe()
        self.pipe = open(read_end, "rb", buffering=0)
        try:
            self.pid: int | None = os.fork()
        except BaseException:
            self.pipe.close()
            os.close(write_end)
            raise
        if self.pid == 0:  # the worker: never returns
            status = 1
            try:
                os.close(read_end)
                if cpus:
                    with contextlib.suppress(OSError):
                        os.sched_setaffinity(0, cpus)
                chunks = task(rows)
                with open(write_end, "wb") as pipe:
                    pipe.writelines(chunks or ())
                status = 0
            finally:  # exits before an exception is reported
                os._exit(status)
        os.close(write_end)

    def chunks(self) -> Iterator[bytes]:
        """The worker's bytes in chunks of at most ``CHUNK_SIZE`` bytes; they
        are whole only when :meth:`join` then gives 0."""
        while chunk := self.pipe.read(CHUNK_SIZE):
            yield chunk

    def join(self) -> int:
        """Reap the worker and return its exit code (minus the signal that
        killed it)."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        self.pipe.close()
        return os.waitstatus_to_exitcode(status)

    def stop(self) -> None:
        """Close the pipe, and kill and reap the worker if it is not reaped."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


@contextlib.contextmanager
def row_shares(task: Task, n_rows: int, k: int) -> Iterator[list[tuple[range, Worker | None]]]:
    """Split rows ``0 .. n_rows - 1`` into ``k`` contiguous shares and fork a
    :class:`Worker` running ``task`` for each share but the first; yield
    the shares in row order, each with its worker, or None for a share the
    caller computes: the first, and, last, the rows of the workers that
    could not be started, if any.  Every worker is reaped, and killed first
    if need be, on leaving."""
    bounds = [n_rows * s // k for s in range(k + 1)]
    cpus = _other_cpus() if k > 1 else None
    workers: list[Worker] = []
    try:
        with contextlib.suppress(OSError):
            for s in range(1, k):
                workers.append(Worker(task, range(bounds[s], bounds[s + 1]), cpus))
        shares: list[tuple[range, Worker | None]] = [(range(bounds[1]), None)]
        shares += [(worker.rows, worker) for worker in workers]
        rest = range(bounds[len(workers) + 1], n_rows)  # empty when every worker started
        if rest:
            shares.append((rest, None))
        yield shares
    finally:
        for worker in workers:
            worker.stop()


def compute_in_shares(compute: Callable[[range], None], n_rows: int, k: int) -> None:
    """Run ``compute`` over rows ``0 .. n_rows - 1`` in ``k`` shares
    (:func:`row_shares`), where ``compute(rows)`` writes the rows ``rows``
    of an array made by :func:`shared_array`.  The caller computes the first
    share, then, in share order, each share whose worker exited non-zero,
    was killed or was never started; so it raises what computing the rows
    inline would raise first."""
    with row_shares(compute, n_rows, k) as shares:
        for rows, worker in shares:
            if worker is None or worker.join() != 0:
                compute(rows)
