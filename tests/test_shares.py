"""``shares.share_map`` against the serial loop it stands for, on any
number of simulated CPUs, with and without ``os.fork``."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_distill import shares


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outcome(run):
    """What ``run()`` returns, as bytes, or the type and message of what
    it raises."""
    try:
        return run().tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


def _serial(measure, items, width):
    rows = [measure(item) for item in items]
    return np.array(rows, dtype=np.float64).reshape(len(items), width)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 200), cpus=st.integers(1, 4), min_share=st.integers(1, 64),
       values=st.integers(1, 3), failing=st.sets(st.integers(0, 199), max_size=3))
def test_a_map_gives_the_rows_and_the_exception_of_the_serial_loop(n, cpus, min_share, values, failing):
    parent = os.getpid()
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(None)
        return real_fork()

    def measure(item):
        if item in failing:
            raise ValueError(f"item {item} fails")
        forked = 0
        if item == n - 1:
            # the last item lies in the last share, a child's whenever there
            # are two shares: a map made there must fork nothing
            before = len(forks)
            shares.share_map(float, list(range(2 * cpus)), 1, 1)
            forked = len(forks) - before if os.getpid() != parent else 0
        return [*np.sin(item * (1.0 + np.arange(values))), forked]

    items, width = list(range(n)), values + 1
    expected = _outcome(lambda: _serial(measure, items, width))
    for fork in ("forks", "cannot fork"):
        def no_fork():
            raise OSError("no fork")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            patch.setattr(os, "fork", counted_fork if fork == "forks" else no_fork)
            assert _outcome(lambda: shares.share_map(measure, items, width, min_share)) == expected
        _no_child_left()


def test_a_child_share_of_the_wrong_byte_count_is_computed_again(monkeypatch):
    # the child's rows lose their last row, as from a short write
    parent = os.getpid()
    rows = shares._rows
    monkeypatch.setattr(shares, "_rows", lambda measure, items, width: (
        rows(measure, items, width)[:None if os.getpid() == parent else -1]))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    calls = []

    def measure(item):
        calls.append(item)
        return [item, -item]

    out = shares.share_map(measure, list(range(10)), 2, 5)
    assert out.tolist() == [[i, -i] for i in range(10)]
    # the parent measured its own share and then the child's
    assert calls == list(range(10))
    _no_child_left()
