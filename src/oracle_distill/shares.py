"""Map a measure over a list of items on every CPU, bit for bit.

``share_map(measure, items, width, min_share)`` is the serial loop
``[measure(item) for item in items]`` as a ``len(items) x width`` float64
array, one row per item.  The items are cut into contiguous shares, one
per CPU in ``os.sched_getaffinity(0)`` but only as many as leave every
share at least ``min_share`` items; every share after the first is
computed by a forked child while the calling process computes the first.
Without ``os.fork``, or inside such a child, there is one share, so a
child never forks again.

Each caller sizes its minimum from measurements on a 2-core x86-64 host,
where a forked share costs one fork, pipe, exit and reap round trip of
1.2-1.5 ms (p10-p50) in a process that has run the three exactness
suites; a share's work should outweigh that:

- ``tensor.FD_MIN_SHARE`` = 64 coordinates of a finite-difference scan,
  each at least about 47 us (two evaluations of the CTC rule on 6 x 4
  logits, the cheapest objective the package checks), so a share costs
  at least about twice its fork;
- ``harness.SUITE_MIN_SHARE`` = 32 instances of a verification suite:
  check-ctc's take 0.34 ms on average and at least about 0.05 ms,
  bound-check's 0.38 ms on average, so a share averages about 11 ms and
  even 32 of the cheapest instances cover one fork;
- ``harness.CTC_RULE_MIN_SHARE`` = 16 checks of grad-check's CTC-rule
  clause: one takes about 1.1 ms on average and at least about 0.3 ms,
  so a share averages about 18 ms and even 16 of the cheapest checks
  cover three forks.

A measure may itself call ``share_map``, as each CTC-rule check's
finite-difference scan does: in a child that call is one share, and in
the calling process a map too small to split forks nothing.

The result is bit-identical to one share's: a child runs the same code on
the same values, copied by the fork, and sends its rows as their raw
float64 bytes, which the calling process lays out in item order.

Errors keep the serial loop's rules.  A share whose child failed, exited
with a byte count other than its rows', or could not be forked is
computed by the calling process after every child is reaped, in share
order, so the exception of the first failing item propagates as from the
serial loop.  If the calling process's own share raises, its children are
killed and reaped before the exception propagates.
"""

from __future__ import annotations

import os
import signal
from typing import Callable, Sequence

import numpy as np

# True in a child forked by ``share_map``: its calls run as one share
_in_child = False


def _shares(n: int, min_share: int) -> list[tuple[int, int]]:
    """``n`` items cut into contiguous (start, stop) shares: one per CPU
    this process may run on, but only as many as leave every share at
    least ``min_share`` items, and one share without ``os.fork`` or in a
    child."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and not _in_child
    cpus = len(os.sched_getaffinity(0)) if forks else 1
    count = max(1, min(cpus, n // min_share))
    bounds = [n * s // count for s in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _rows(measure: Callable, items: Sequence, width: int) -> np.ndarray:
    """The serial loop: one row of ``width`` float64 values per item."""
    out = np.empty((len(items), width))
    for j, item in enumerate(items):
        out[j] = measure(item)
    return out


def _fork_share(measure: Callable, items: Sequence, width: int) -> tuple[int, int] | None:
    """A forked child that writes ``_rows(measure, items, width)`` as raw
    float64 bytes to a pipe and exits: (its pid, the pipe's read end), or
    None when no child can be made."""
    global _in_child
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        # the child leaves by os._exit on every path: it must not return
        # into its copy of the caller, and a failure reads as status 1
        status = 1
        try:
            _in_child = True
            os.close(r)
            data = _rows(measure, items, width).tobytes()
            with open(w, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _reap(pid: int, r: int, rows: int, width: int) -> np.ndarray | None:
    """The ``rows x width`` values the child ``pid`` wrote to ``r``, once
    it has exited, or None when it failed or wrote another byte count."""
    with open(r, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status or len(data) != rows * width * 8:
        return None
    return np.frombuffer(data).reshape(rows, width)


def share_map(measure: Callable, items: Sequence, width: int, min_share: int) -> np.ndarray:
    """``measure(item)`` for every item, each ``width`` float64 values, as
    a ``len(items) x width`` array, its shares computed on every CPU by
    the module's rule; it raises what the serial loop raises."""
    shares = _shares(len(items), min_share)
    children = []
    try:
        for lo, hi in shares[1:]:
            children.append(_fork_share(measure, items[lo:hi], width))
        parts = [_rows(measure, items[slice(*shares[0])], width)]
    except BaseException:
        for child in children:
            if child is not None:
                os.kill(child[0], signal.SIGKILL)
        raise
    finally:
        done = [None if child is None else _reap(*child, hi - lo, width)
                for child, (lo, hi) in zip(children, shares[1:])]
    for (lo, hi), part in zip(shares[1:], done):
        parts.append(_rows(measure, items[lo:hi], width) if part is None else part)
    return np.concatenate(parts)
