"""Memory ownership: the Theorem 1 stack is a tree of references.

A discarded scheduler must be freed by reference counting alone: the
trimming layer drops a whole inner scheduler on every n* rebuild, and
timed regions run with the cyclic collector disabled, so one reference
cycle per scheduler keeps every rebuilt schedule alive until the next
full collection. Every test here runs with ``gc`` disabled and checks
either that a ``weakref`` dies without ``gc.collect()`` or that
``gc.collect()`` finds nothing once a stack is dropped.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.api import ReservationScheduler
from repro.core.costs import RequestCost
from repro.core.job import Job
from repro.core.requests import InsertJob
from repro.core.window import Window
from repro.reservation import AlignedReservationScheduler
from repro.reservation.trimming import TrimmedReservationScheduler
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence
from repro.workloads.scenarios import (churn_storm_sequence,
                                       steady_state_sequence)


@pytest.fixture(autouse=True)
def gc_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def grow(prefix: str, count: int) -> list[InsertJob]:
    return [InsertJob(Job(f"{prefix}-{i}", Window(0, 1 << 10)))
            for i in range(count)]


def bursts(seq: list, size: int = 64) -> list[list]:
    return [seq[i:i + size] for i in range(0, len(seq), size)]


def test_interval_holds_no_scheduler_hooks():
    sched = AlignedReservationScheduler()
    sched.insert(Job("a", Window(0, 1 << 12)))
    ivs = [iv for table in sched.intervals.values() for iv in table.values()]
    assert ivs
    for iv in ivs:
        assert not hasattr(iv, "on_assign")
        assert not hasattr(iv, "on_release")
        assert sched not in gc.get_referents(iv)


def test_sequential_rebuild_frees_replaced_inner():
    sched = TrimmedReservationScheduler(gamma=8, min_n_star=4)
    old = weakref.ref(sched.inner)
    for request in grow("g", 2 * sched.n_star + 2):
        sched.apply(request)
    assert sched.rebuilds > 0
    assert old() is None
    assert gc.collect() == 0


def test_atomic_rebuild_commit_frees_replaced_inner():
    """An atomic batch whose rebuild replaces the inner mid-batch closes
    the pre-batch inner's batch log at commit, so it is freed."""
    sched = TrimmedReservationScheduler(gamma=8, min_n_star=4)
    for request in grow("warm", 3):
        sched.apply(request)
    old = weakref.ref(sched.inner)
    result = sched.apply_batch(grow("g", 2 * sched.n_star + 2), atomic=True)
    assert not result.failed
    assert sched.rebuilds > 0
    # the inner itself is acyclic either way; an unclosed batch log
    # leaves its intervals and arena journal pointing at each other
    assert old() is None
    assert gc.collect() == 0


def churn(n: int = 1200, machines: int = 1) -> list:
    return list(churn_storm_sequence(requests=n, num_machines=machines,
                                     seed=1))


def drive_sequential(sched, seq):
    for request in seq:
        sched.apply(request)


def drive_atomic_with_abort(sched, seq):
    for i, burst in enumerate(bursts(seq)):
        if i % 4 == 3:
            # the duplicate tail fails after the whole burst applied
            dup = grow(f"dup-{i}", 1)
            result = sched.apply_batch(burst + dup + dup, atomic=True)
            assert result.rolled_back
            del result
        assert not sched.apply_batch(burst, atomic=True).failed


def drive_flexible(sched, seq):
    for burst in bursts(seq):
        assert not sched.apply_batch(burst, semantics="flexible").failed


def drive_sharded(sched, seq):
    for burst in bursts(seq):
        assert not sched.apply_batch_sharded(burst).failed


def span2_workload() -> list:
    cfg = AlignedWorkloadConfig(
        num_requests=400, num_machines=1, gamma=32, horizon=1 << 11,
        max_span=1 << 11, min_span=2, delete_fraction=0.35)
    return list(random_aligned_sequence(cfg, seed=6))


CONFIGS = [
    ("m1-sequential", lambda: ReservationScheduler(1, gamma=8),
     churn, drive_sequential),
    ("m1-atomic-abort", lambda: ReservationScheduler(1, gamma=8),
     churn, drive_atomic_with_abort),
    ("m1-flexible", lambda: ReservationScheduler(1, gamma=8),
     churn, drive_flexible),
    ("m3-sharded", lambda: ReservationScheduler(3, gamma=8),
     lambda: churn(machines=3), drive_sharded),
    ("deamortized",
     lambda: ReservationScheduler(1, gamma=8, deamortized=True),
     span2_workload, drive_sequential),
    ("deamortized-atomic",
     lambda: ReservationScheduler(1, gamma=8, deamortized=True),
     span2_workload, drive_atomic_with_abort),
    ("trim-off", lambda: ReservationScheduler(1, gamma=8, trim=False),
     churn, drive_sequential),
]


@pytest.mark.parametrize("name,factory,workload,drive", CONFIGS,
                         ids=[c[0] for c in CONFIGS])
def test_dropped_stack_leaves_no_cyclic_garbage(name, factory, workload,
                                                drive):
    seq = workload()
    gc.collect()  # the workload generator's own garbage
    sched = factory()
    drive(sched, seq)
    probe = weakref.ref(sched)
    del sched
    assert probe() is None
    assert gc.collect() == 0


def live_request_costs() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is RequestCost)


def test_live_request_costs_follow_the_top_ledger():
    """Only the driven scheduler keeps a ledger: the wrappers' owned
    children allocate no RequestCost, so the live ones are the top
    ledger's entries plus a few in flight."""
    seq = list(steady_state_sequence(requests=4000, num_machines=3, seed=0,
                                     target_active=320))
    before = live_request_costs()
    sched = ReservationScheduler(3, gamma=8)
    drive_sequential(sched, seq)
    assert len(sched.ledger) == len(seq)
    assert live_request_costs() - before <= len(sched.ledger) + 8
