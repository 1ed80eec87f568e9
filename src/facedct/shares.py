"""Row shares: a step's rows split between the caller and forked workers.

This module alone knows how work is split between processes.  A step
states its rows, its work, the fewest units of work per share that pays
for a fork (its floor, measured for that step), and the function that
computes a share's rows.  Three steps run this way: featurizing a
split's images (``pipeline.extract_subject_features``), the score tensor
(``matching.build_score_tensor``) and the text of a score file
(``matching.save_scores_csv``).

The rows are split into k contiguous shares, one per usable CPU, with at
least one row and ``floor`` units of work each, and k = 1 where
``os.fork`` does not exist (:func:`n_shares`).  The caller computes the
first share, and one forked worker each of the others.  Where a pipe or
process cannot be made, no more workers are forked, and the caller
computes the shares none took, in share order after the others; where the
shared mapping of :func:`fill` cannot be made, none is forked, and the
caller computes every row inline.  Every worker is reaped before the step
returns or raises, and killed first if need be.

A worker runs wherever the scheduler puts it.  Pinning workers off the
caller's CPU paid nothing measurable: in 12 alternating pairs of
feret-shaped commands on a 2-vCPU host, pinned against unpinned,
``enroll`` took 0.077 against 0.074 s, ``evaluate`` 0.306 against 0.310 s
and ``fuse-eval`` 0.258 against 0.261 s.  A worker hands its result back
in one of two ways:

- rows of an array in memory shared with the caller, an anonymous
  ``MAP_SHARED`` mapping, which is then the step's result with no copy
  (:func:`fill`).  A worker that fails exits non-zero and prints nothing,
  and the caller computes its share again, in share order, so an error is
  raised by the caller, as inline, for the first bad row in row order;
- bytes written into a pipe once the worker has made them all, which the
  caller reads after the shares before it (:func:`text`).  A worker that
  exits non-zero is an OSError once its bytes are read, so a file written
  from them is never completed.

The workers are forked, not spawned: a spawned worker would import this
package and be sent its inputs, which costs more than a share saves.  A
fork also costs the caller: after it, the first write to each page the
caller held takes a page fault, so each step forks only past its floor.
A worker only reads files, runs numpy (BLAS included) and formats text,
so it waits on no lock that another thread of the caller could hold at
the fork; a test forks every step with a second thread running.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import mmap
import os
import signal
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from .errors import CHUNK_SIZE

#: what a worker runs: its rows in, and the bytes to write into its pipe, if
#: any, out
_Task = Callable[[range], Iterable[bytes] | None]


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def n_shares(n_rows: int, work: int, floor: int) -> int:
    """Into how many shares a step of ``n_rows`` rows and ``work`` units of
    work is split: one per usable CPU, with at least one row and ``floor``
    units each; one where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(usable_cpus(), n_rows, work // floor))


class _Worker:
    """A forked process that runs ``task(rows)``, writes the bytes it
    returns into a pipe, and exits: 0 once it has written them all and
    closed the pipe, 1 when the task raises, printing nothing either way.
    A pipe or process that cannot be made is an OSError, and leaves no
    process behind."""

    def __init__(self, task: _Task, rows: range) -> None:
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
                chunks = task(rows)
                with open(write_end, "wb") as pipe:
                    pipe.writelines(chunks or ())
                status = 0
            finally:  # exits before an exception is reported
                os._exit(status)
        os.close(write_end)

    def join(self) -> int:
        """Reap the worker and return its exit code (minus the signal that
        killed it)."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        self.pipe.close()
        return os.waitstatus_to_exitcode(status)

    def output(self) -> Iterator[bytes]:
        """The worker's bytes in chunks of at most ``CHUNK_SIZE`` bytes, then
        its reaping; an exit other than 0 is an OSError."""
        while chunk := self.pipe.read(CHUNK_SIZE):
            yield chunk
        code = self.join()
        if code != 0:
            raise OSError(
                f"the process formatting rows {self.rows.start}-{self.rows.stop - 1} "
                f"exited with code {code}"
            )

    def stop(self) -> None:
        """Close the pipe, and kill and reap the worker if it is not reaped."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


@contextlib.contextmanager
def _row_shares(task: _Task, n_rows: int, k: int) -> Iterator[list[tuple[range, _Worker | None]]]:
    """Split rows ``0 .. n_rows - 1`` into ``k`` contiguous shares and fork a
    :class:`_Worker` running ``task`` for each share but the first, until
    one cannot be started; yield the shares in row order, each with its
    worker, or None for a share the caller computes.  Every worker is
    reaped, and killed first if need be, on leaving."""
    shares = [range(n_rows * s // k, n_rows * (s + 1) // k) for s in range(k)]
    workers: list[_Worker] = []
    try:
        with contextlib.suppress(OSError):
            for rows in shares[1:]:
                workers.append(_Worker(task, rows))
        yield list(itertools.zip_longest(shares, [None, *workers]))
    finally:
        for worker in workers:
            worker.stop()


def fill(
    shape: tuple[int, ...],
    n_rows: int,
    work: int,
    floor: int,
    compute: Callable[[np.ndarray, range], None],
) -> np.ndarray:
    """A new float64 array of ``shape`` whose rows ``0 .. n_rows - 1`` are
    written by ``compute(out, rows)``, run over :func:`n_shares` shares.
    With more than one, the array is in an anonymous ``MAP_SHARED``
    mapping, which forked workers write into; when it cannot be made (no
    memory, or no mapping left to the process), the rows are computed
    inline.  The caller computes the first share, then, in share order,
    each share whose worker exited non-zero, was killed or was never
    started; so it raises what computing the rows inline would raise
    first."""
    k = n_shares(n_rows, work, floor)
    size = math.prod(shape)
    try:
        out = np.empty(size) if k == 1 else np.frombuffer(mmap.mmap(-1, 8 * size))
    except OSError:
        out, k = np.empty(size), 1
    out = out.reshape(shape)
    with _row_shares(lambda rows: compute(out, rows), n_rows, k) as shares:
        for rows, worker in shares:
            if worker is None or worker.join() != 0:
                compute(out, rows)
    return out


@contextlib.contextmanager
def text(
    n_rows: int, work: int, floor: int, blocks: Callable[[range], Iterable[bytes]]
) -> Iterator[Iterator[bytes]]:
    """Yield the bytes of ``blocks(rows)`` for rows ``0 .. n_rows - 1`` in
    row order, as chunks, run over :func:`n_shares` shares.  The caller
    makes its shares' blocks as they are read.  A worker makes its whole
    share, as a list, before it writes into its pipe: written as they are
    made, its blocks would fill the pipe and hold the worker until the
    caller reads them, after the shares before it.  A worker that exits
    non-zero is an OSError once its bytes are read."""
    k = n_shares(n_rows, work, floor)
    with _row_shares(lambda rows: list(blocks(rows)), n_rows, k) as shares:
        yield itertools.chain.from_iterable(w.output() if w else blocks(r) for r, w in shares)
