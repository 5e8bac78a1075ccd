"""One ledger: only the scheduler the caller drives records costs.

Every wrapper in the Theorem 1 stack marks the child schedulers it
builds as owned (``ReallocatingScheduler._own``). An owned
sparse-costing child publishes its touched log and nothing else, on
sequential requests as inside batches, so the driven scheduler's ledger
is the only one and holds exactly one entry per request. A scheduler
driven on its own keeps its ledger, and a dense-costing child keeps
finalizing because its wrapper reads the returned cost.
"""

from __future__ import annotations

import pytest

from repro.baselines.naive_pecking import NaivePeckingScheduler
from repro.core.api import ReservationScheduler
from repro.multimachine.delegation import DelegatingScheduler
from repro.reservation import AlignedReservationScheduler
from repro.reservation.deamortized import DeamortizedReservationScheduler
from repro.reservation.trimming import TrimmedReservationScheduler
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence
from repro.workloads.scenarios import churn_storm_sequence


def owned_children(sched) -> list:
    """The live child schedulers a stack layer owns."""
    if isinstance(sched, ReservationScheduler):
        return [sched.delegator]
    if isinstance(sched, DelegatingScheduler):
        return list(sched.machines)
    if isinstance(sched, TrimmedReservationScheduler):
        return [sched.inner]
    if isinstance(sched, DeamortizedReservationScheduler):
        return [inner for inner in (sched.active, sched.incoming)
                if inner is not None]
    return []


def owned_layers(sched) -> list:
    """Every owned scheduler below ``sched``, depth first."""
    out = []
    for child in owned_children(sched):
        out.append(child)
        out.extend(owned_layers(child))
    return out


def assert_one_ledger(sched) -> None:
    layers = owned_layers(sched)
    assert layers
    for layer in layers:
        assert layer._owned
        assert len(layer.ledger) == 0, type(layer).__name__


def churn(machines: int) -> list:
    return list(churn_storm_sequence(requests=900, num_machines=machines,
                                     seed=3))


def span2(machines: int) -> list:
    """A 2*gamma-underallocated aligned stream with spans >= 2, as the
    deamortized variant requires."""
    cfg = AlignedWorkloadConfig(
        num_requests=500, num_machines=machines, gamma=32,
        horizon=1 << 11, max_span=1 << 11, min_span=2,
        delete_fraction=0.35)
    return list(random_aligned_sequence(cfg, seed=6))


def bursts(seq: list, size: int = 48) -> list[list]:
    return [seq[i:i + size] for i in range(0, len(seq), size)]


def drive_sequential(sched, seq) -> None:
    for request in seq:
        sched.apply(request)
        assert_one_ledger(sched)


def drive_atomic(sched, seq) -> None:
    for burst in bursts(seq):
        assert not sched.apply_batch(burst, atomic=True).failed
        assert_one_ledger(sched)


def drive_flexible(sched, seq) -> None:
    for burst in bursts(seq):
        assert not sched.apply_batch(burst, semantics="flexible").failed
        assert_one_ledger(sched)


def drive_sharded(sched, seq) -> None:
    for burst in bursts(seq):
        assert not sched.apply_batch_sharded(burst).failed
        assert_one_ledger(sched)


VARIANTS = {
    "trim": (dict(), churn),
    "trim-off": (dict(trim=False), churn),
    "deamortized": (dict(deamortized=True), span2),
}
DRIVES = {
    "sequential": drive_sequential,
    "atomic": drive_atomic,
    "flexible": drive_flexible,
    "sharded": drive_sharded,
}


@pytest.mark.parametrize("drive", sorted(DRIVES))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("machines", [1, 3])
def test_only_the_driven_scheduler_keeps_a_ledger(machines, variant, drive):
    kwargs, workload = VARIANTS[variant]
    seq = workload(machines)
    sched = ReservationScheduler(machines, gamma=8, **kwargs)
    DRIVES[drive](sched, seq)
    assert len(sched.ledger) == len(seq)
    if variant == "trim" and drive != "flexible":
        # rebuilds replaced inners along the way; the fresh ones are
        # owned too (checked after every step above). Flexible bursts
        # pre-size n* and may skip every rebuild.
        assert sum(sub.rebuilds for sub in sched.machine_schedulers()) > 0


def test_owned_sparse_child_returns_no_cost():
    """An owned child answers with its touched log, not a cost."""
    sched = ReservationScheduler(1, gamma=8, trim=False)
    child = sched.delegator.machines[0]
    returned = []
    child_insert, child_delete = child.insert, child.delete
    child.insert = lambda job: returned.append(child_insert(job))
    child.delete = lambda job_id: returned.append(child_delete(job_id))
    seq = churn(1)[:200]
    for request in seq:
        assert sched.apply(request) is not None
        assert child.last_touched is not None
    assert len(returned) >= len(seq)
    assert all(cost is None for cost in returned)
    assert len(sched.ledger) == len(seq)


@pytest.mark.parametrize("factory", [
    AlignedReservationScheduler,
    TrimmedReservationScheduler,
    lambda: DelegatingScheduler(3, TrimmedReservationScheduler),
], ids=["aligned", "trimmed", "delegating"])
def test_standalone_layers_keep_their_ledgers(factory):
    """Bare stacks (the benchmark's layer cut) record one entry per
    request; only what they own goes quiet."""
    sched = factory()
    seq = churn(sched.num_machines)
    for request in seq:
        sched.apply(request)
    assert len(sched.ledger) == len(seq)
    for layer in owned_layers(sched):
        assert len(layer.ledger) == 0


def test_dense_children_keep_their_costs():
    """Delegation reads a dense child's returned cost to learn what it
    moved, so an owned dense child keeps finalizing."""
    sched = DelegatingScheduler(2, NaivePeckingScheduler)
    seq = churn(2)
    for request in seq:
        sched.apply(request)
    assert len(sched.ledger) == len(seq)
    assert all(sub._owned for sub in sched.machines)
    assert sum(len(sub.ledger) for sub in sched.machines) >= len(seq)
