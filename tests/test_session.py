"""The unified execution API: Session, drive backends, traces, resume.

The contract under test (sim/session.py module docstring): one shared
drive loop with pluggable backends, where SequentialBackend,
BatchedBackend, and ShardedBackend produce identical placements, ledger
entries, and max-span tracking on the same sequence; run_sequence /
run_engine / run_sweep are thin adapters over it; traces make runs
resumable via deterministic prefix replay.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.core.api import ReservationScheduler
from repro.core.exceptions import InvalidRequestError
from repro.core.job import Job
from repro.core.requests import Batch, DeleteJob, InsertJob, insert, iter_batches
from repro.core.window import Window
from repro.multimachine.delegation import DelegatingScheduler
from repro.reservation import AlignedReservationScheduler
from repro.reservation.scheduler import AlignedReservationScheduler as _ARS
from repro.reservation.trimming import TrimmedReservationScheduler
from repro.sim import run_engine, run_sequence, run_sweep
from repro.sim.session import (
    DEFAULT_FULL_AUDIT_EVERY,
    ExecutionPlan,
    Session,
    SessionTrace,
)
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence
from repro.workloads.scenarios import churn_storm_sequence


def make_workload(num_requests=600, seed=0, machines=1):
    cfg = AlignedWorkloadConfig(
        num_requests=num_requests, num_machines=machines, gamma=8,
        horizon=1 << 11, max_span=1 << 11, delete_fraction=0.35,
    )
    return random_aligned_sequence(cfg, seed=seed)


def assert_equivalent(a, b):
    assert dict(a.placements) == dict(b.placements)
    assert a.ledger.entries == b.ledger.entries
    assert a._max_span_cache == b._max_span_cache
    assert a.jobs == b.jobs


# ----------------------------------------------------------------------
# backend equivalence (the acceptance property)
# ----------------------------------------------------------------------
BACKEND_PLANS = [
    ("sequential", dict(backend="sequential")),
    ("batched", dict(backend="batched", batch_size=32)),
    ("batched-atomic", dict(backend="batched", batch_size=32,
                            atomic_batches=True)),
    ("sharded", dict(backend="sharded", batch_size=32)),
]


@pytest.mark.parametrize("machines", [1, 3])
def test_all_backends_identical_on_theorem1(machines):
    """Sequential, batched, and sharded backends produce identical
    placements, ledger entries, and max-span on the same sequence."""
    for seed in (0, 2):
        seq = make_workload(500, seed=seed, machines=machines)
        reference = None
        for label, kwargs in BACKEND_PLANS:
            sched = ReservationScheduler(machines, gamma=8)
            plan = ExecutionPlan(verify="incremental", **kwargs)
            result = Session(sched, seq, plan).run()
            assert not result.failed, (label, result.failure)
            assert result.requests_processed == len(seq)
            if reference is None:
                reference = sched
            else:
                assert_equivalent(sched, reference)
            sched.check_balance()


def test_sharded_matches_sequential_on_raw_delegating_m3():
    """Exact placement/ledger/max-span equality for sharded vs
    sequential on a bare DelegatingScheduler with m >= 3 (acceptance
    criterion), across batch sizes that cut bursts mid-stream."""
    for seed, batch_size in ((0, 7), (1, 64), (2, 3)):
        seq = make_workload(400, seed=seed, machines=3)
        sequential = DelegatingScheduler(3, AlignedReservationScheduler)
        for r in seq:
            sequential.apply(r)
        sharded = DelegatingScheduler(3, AlignedReservationScheduler)
        for batch in iter_batches(seq, batch_size):
            result = sharded.apply_batch_sharded(batch)
            assert not result.failed, result.failure
            assert result.processed == len(batch)
        assert_equivalent(sharded, sequential)
        sharded.check_balance()


def test_sharded_net_diff_matches_batched():
    seq = list(make_workload(300, seed=5, machines=3))
    batched = DelegatingScheduler(3, AlignedReservationScheduler)
    sharded = DelegatingScheduler(3, AlignedReservationScheduler)
    for r in seq[:200]:
        batched.apply(r)
        sharded.apply(r)
    burst = Batch(seq[200:260])
    rb = batched.apply_batch(burst)
    rs = sharded.apply_batch_sharded(burst)
    assert rs.net.rescheduled == rb.net.rescheduled
    assert rs.net.migrated == rb.net.migrated
    assert rs.net.kind == "batch"
    assert [c for c in rs.costs] == [c for c in rb.costs]


def test_machine_sub_batches_tracks_in_batch_migrations():
    """A delete that migrates a job must route that job's later delete
    to the machine it migrated to (the pre-plan-refactor code read the
    live balancer and would answer with the stale machine)."""
    sched = DelegatingScheduler(2, AlignedReservationScheduler)
    w = Window(0, 64)
    sched.insert(Job("a", w))   # machine 0
    sched.insert(Job("b", w))   # machine 1
    requests = [DeleteJob("a"), DeleteJob("b")]
    # deleting a (m0): donor is machine (2-1)%2=1, so b migrates to m0;
    # the subsequent delete of b must therefore go to machine 0
    plan = sched.machine_sub_batches(Batch(requests))
    assert requests[0] in plan[0]
    assert requests[1] in plan[0]
    result = sched.apply_batch_sharded(Batch(requests))
    assert not result.failed
    assert sched.jobs == {}


def test_sharded_burst_rolls_back_wholesale():
    """Sharded bursts are transactional: a failing request aborts every
    shard and restores the exact pre-burst state; the scheduler stays
    usable and future behavior matches one that never saw the burst."""
    seq = make_workload(400, seed=9, machines=3)
    prefix, inside, after = list(seq)[:200], list(seq)[200:260], list(seq)[260:]
    sched = ReservationScheduler(3, gamma=8)
    for r in prefix:
        sched.apply(r)
    pre_placements = dict(sched.placements)
    pre_jobs = dict(sched.jobs)
    pre_ledger = len(sched.ledger.entries)
    pre_max_span = sched._max_span_cache

    bad = inside + [insert("dup", 0, 64), insert("dup", 0, 64)]
    result = sched.apply_batch_sharded(bad)
    assert result.failed and result.rolled_back
    assert result.processed == 0 and result.net is None
    assert dict(sched.placements) == pre_placements
    assert sched.jobs == pre_jobs
    assert len(sched.ledger.entries) == pre_ledger
    assert sched._max_span_cache == pre_max_span

    reference = ReservationScheduler(3, gamma=8)
    for r in prefix:
        reference.apply(r)
    for r in inside + after:
        sched.apply(r)
        reference.apply(r)
    assert_equivalent(sched, reference)
    sched.check_balance()


def test_sharded_rejects_unsupported_schedulers():
    from repro.baselines import EDFRebuildScheduler

    # no per-machine decomposition at all
    sched = AlignedReservationScheduler()
    with pytest.raises(InvalidRequestError):
        sched.apply_batch_sharded(list(make_workload(8))[:4])
    # delegating, but subs cannot abort an atomic batch context
    delegating = DelegatingScheduler(2, lambda: EDFRebuildScheduler(1))
    assert not delegating.supports_sharded_batches()
    with pytest.raises(InvalidRequestError):
        delegating.apply_batch_sharded(list(make_workload(8))[:4])
    # the session routes it through the normal failure policy: a bad
    # cell fails gracefully (sweeps keep going) or raises on demand
    result = Session(AlignedReservationScheduler(), make_workload(8),
                     ExecutionPlan(backend="sharded", batch_size=4)).run()
    assert result.failed and "sharded" in result.failure
    assert result.requests_processed == 0
    with pytest.raises(InvalidRequestError):
        Session(AlignedReservationScheduler(), make_workload(8),
                ExecutionPlan(backend="sharded", batch_size=4,
                              stop_on_error=True)).run()


def test_sharded_invalid_request_reports_without_mutation():
    sched = DelegatingScheduler(2, AlignedReservationScheduler)
    sched.insert(Job("x", Window(0, 64)))
    result = sched.apply_batch_sharded([insert("x", 0, 64)])
    assert result.failed and result.rolled_back
    assert "InvalidRequestError" in result.failure
    result = sched.apply_batch_sharded([DeleteJob("ghost")])
    assert result.failed and result.rolled_back
    assert sched.jobs.keys() == {"x"}


# ----------------------------------------------------------------------
# the one full-audit default (satellite)
# ----------------------------------------------------------------------
def test_full_audit_default_defined_once_on_the_plan():
    assert ExecutionPlan().full_audit_every == DEFAULT_FULL_AUDIT_EVERY == 1024
    # the adapters no longer carry their own (previously drifted 256 vs
    # 1024) defaults — both defer to the plan
    for fn in (run_sequence, run_engine):
        default = inspect.signature(fn).parameters["full_audit_every"].default
        assert default is None, fn.__name__


# ----------------------------------------------------------------------
# trace + resume (satellite)
# ----------------------------------------------------------------------
RESUME_PLANS = [
    ("sequential", dict(backend="sequential")),
    ("batched-strict", dict(backend="batched", batch_size=64)),
    ("batched-flexible", dict(backend="batched", batch_size=64,
                              batch_semantics="flexible")),
    ("sharded-strict", dict(backend="sharded", batch_size=64)),
    ("sharded-flexible", dict(backend="sharded", batch_size=64,
                              batch_semantics="flexible")),
]


@pytest.mark.parametrize("kwargs", [kw for _, kw in RESUME_PLANS],
                         ids=[name for name, _ in RESUME_PLANS])
def test_resume_round_trip_matches_uninterrupted(tmp_path, kwargs):
    """The resumed run replays its prefix through the plan's own
    backend, so flexible bursts come out as in the uninterrupted run."""
    seq = churn_storm_sequence(requests=2500, seed=3, num_machines=3)
    trace = tmp_path / "run.jsonl"

    full_sched = ReservationScheduler(3, gamma=8)
    full = run_engine(full_sched, seq, checkpoint_every=500, **kwargs)

    part_sched = ReservationScheduler(3, gamma=8)
    partial = run_engine(part_sched, seq, checkpoint_every=500,
                         trace_path=trace, stop_after=1000, **kwargs)
    assert partial.interrupted and partial.requests_processed < len(seq)
    records = SessionTrace.read_records(trace)
    assert records[0]["type"] == "header"
    assert SessionTrace.final_record(records) is None  # killed mid-run

    res_sched = ReservationScheduler(3, gamma=8)
    resumed = run_engine(res_sched, seq, checkpoint_every=500,
                         trace_path=trace, resume=True, **kwargs)
    assert resumed.resumed_from == partial.requests_processed
    assert resumed.requests_processed == len(seq)
    assert not resumed.interrupted
    assert resumed.ledger_summary == full.ledger_summary
    assert_equivalent(res_sched, full_sched)
    final = SessionTrace.final_record(SessionTrace.read_records(trace))
    assert final is not None and final["processed"] == len(seq)


def test_resume_refuses_a_different_sequence(tmp_path):
    trace = tmp_path / "run.jsonl"
    seq_a = make_workload(300, seed=1)
    seq_b = make_workload(300, seed=2)
    run_engine(ReservationScheduler(1, gamma=8), seq_a, batch_size=32,
               checkpoint_every=100, trace_path=trace, stop_after=100)
    with pytest.raises(ValueError, match="fingerprint"):
        run_engine(ReservationScheduler(1, gamma=8), seq_b, batch_size=32,
                   trace_path=trace, resume=True)


def test_resume_restarts_on_burst_boundaries(tmp_path):
    """A recorded offset that is not a multiple of the batch size (the
    trailing partial burst) must floor to the last burst boundary."""
    trace = tmp_path / "run.jsonl"
    seq = make_workload(300, seed=4)
    run_engine(ReservationScheduler(1, gamma=8), seq, batch_size=64,
               checkpoint_every=50, trace_path=trace, stop_after=150)
    records = SessionTrace.read_records(trace)
    assert SessionTrace.resume_offset(records) % 64 == 0
    resumed = run_engine(ReservationScheduler(1, gamma=8), seq,
                         batch_size=64, trace_path=trace, resume=True)
    assert resumed.requests_processed == len(seq)


def test_sweep_resumes_per_cell(tmp_path):
    scenarios = {
        "a": make_workload(240, seed=1),
        "b": make_workload(240, seed=2),
    }
    factories = {"reservation": lambda: ReservationScheduler(1, gamma=8)}
    first = run_sweep(scenarios, factories, batch_size=32,
                      checkpoint_every=64, trace_dir=tmp_path, stop_after=96)
    assert all(r.interrupted for r in first.values())
    second = run_sweep(scenarios, factories, batch_size=32,
                       checkpoint_every=64, trace_dir=tmp_path, resume=True)
    assert all(r.requests_processed == 240 for r in second.values())
    # a third resume reconstructs completed cells from their traces,
    # including the resume offset (throughput must cover only the
    # session that actually ran, not the replayed prefix)
    third = run_sweep(scenarios, factories, batch_size=32,
                      trace_dir=tmp_path, resume=True)
    for key, r in third.items():
        assert r.ledger_summary == second[key].ledger_summary
        assert r.resumed_from == second[key].resumed_from > 0
        assert r.requests_per_second == pytest.approx(
            (r.requests_processed - r.resumed_from) / r.scheduler_time_s)
    reference = run_sweep(scenarios, factories)
    for key, r in second.items():
        assert r.ledger_summary == reference[key].ledger_summary


def test_sweep_survives_an_incompatible_cell(tmp_path):
    """One scheduler that cannot run the chosen backend fails its cells
    gracefully; the rest of the sweep still completes."""
    from repro.baselines import EDFRebuildScheduler

    scenarios = {"a": make_workload(120, seed=1)}
    factories = {
        "reservation": lambda: ReservationScheduler(1, gamma=8),
        "edf": lambda: EDFRebuildScheduler(1),
    }
    results = run_sweep(scenarios, factories, batch_size=32,
                        backend="sharded")
    assert not results[("a", "reservation")].failed
    bad = results[("a", "edf")]
    assert bad.failed and "sharded" in bad.failure
    assert bad.requests_processed == 0


def test_traced_run_accepts_a_one_shot_iterator(tmp_path):
    """Fingerprinting must not exhaust generator-shaped sequences."""
    trace = tmp_path / "run.jsonl"
    requests = list(make_workload(200, seed=0))
    result = run_engine(ReservationScheduler(1, gamma=8), iter(requests),
                        batch_size=32, trace_path=trace)
    assert not result.failed
    assert result.requests_processed == 200


def test_sweep_resume_reruns_stale_cell_traces(tmp_path):
    """A completed cell trace recorded for *different* scenario content
    (e.g. a new --requests) must not be served back as current — the
    cell re-runs from scratch against the new sequence."""
    factories = {"reservation": lambda: ReservationScheduler(1, gamma=8)}
    small = {"a": make_workload(120, seed=1)}
    run_sweep(small, factories, batch_size=32, trace_dir=tmp_path)
    bigger = {"a": make_workload(240, seed=1)}
    redo = run_sweep(bigger, factories, batch_size=32,
                     trace_dir=tmp_path, resume=True)
    assert redo[("a", "reservation")].requests_processed == 240
    # and the fresh trace now resumes cleanly as the bigger sequence
    again = run_sweep(bigger, factories, batch_size=32,
                      trace_dir=tmp_path, resume=True)
    assert again[("a", "reservation")].requests_processed == 240


def test_trace_records_are_json_lines(tmp_path):
    trace = tmp_path / "run.jsonl"
    seq = make_workload(200, seed=0)
    run_sequence_result = run_engine(
        ReservationScheduler(1, gamma=8), seq,
        checkpoint_every=50, trace_path=trace)
    assert not run_sequence_result.failed
    with open(trace) as fh:
        records = [json.loads(line) for line in fh]
    assert records[0]["type"] == "header"
    assert records[0]["fingerprint"]
    kinds = {r["type"] for r in records}
    assert kinds == {"header", "checkpoint", "final"}
    final = records[-1]
    assert final["processed"] == len(seq)
    assert final["ledger"]["requests"] == len(seq)
    assert final["placements"]


# ----------------------------------------------------------------------
# journal diet (satellite): sequential rebuilds skip the undo journal
# ----------------------------------------------------------------------
def test_sequential_rebuild_runs_journal_free(monkeypatch):
    engaged = []
    orig = _ARS._apply_insert

    def spy(self, job):
        engaged.append(self._abatch is None and self._journal_enabled)
        return orig(self, job)

    monkeypatch.setattr(_ARS, "_apply_insert", spy)
    sched = TrimmedReservationScheduler(gamma=8)
    seq = make_workload(400, seed=6)
    for r in seq:
        sched.apply(r)
    assert sched.rebuilds > 0
    # some inserts ran journal-free (rebuild survivors), some journaled
    # (the live per-request path)
    assert not all(engaged) and any(engaged)
    assert sched.inner._journal_enabled  # diet scoped to the rebuild loop


def test_rebuild_journal_diet_is_pure_bookkeeping():
    """The diet changes allocation work only: placements, ledger, and
    trim state stay identical to the journaled oracle."""
    seq = make_workload(600, seed=7)
    diet = TrimmedReservationScheduler(gamma=8)
    oracle = TrimmedReservationScheduler(gamma=8)
    oracle.rebuild_journal_diet = False
    for r in seq:
        diet.apply(r)
        oracle.apply(r)
    assert_equivalent(diet, oracle)
    assert diet.rebuilds == oracle.rebuilds and diet.rebuilds > 0
    assert diet.n_star == oracle.n_star


# ----------------------------------------------------------------------
# session surface
# ----------------------------------------------------------------------
def test_plan_validation():
    with pytest.raises(ValueError):
        ExecutionPlan(verify="sometimes")
    with pytest.raises(ValueError):
        ExecutionPlan(backend="quantum")
    with pytest.raises(ValueError):
        ExecutionPlan(batch_size=0)
    # negative cadences used to slip through (stop_after=-3 ended a run
    # after one request; checkpoint_every=-100 silently disabled the
    # checkpoints a trace needs to resume); 0 still means off
    for cadence in ("full_audit_every", "validate_every",
                    "checkpoint_every", "stop_after"):
        with pytest.raises(ValueError, match=cadence):
            ExecutionPlan(**{cadence: -1})
        ExecutionPlan(**{cadence: 0})
    with pytest.raises(ValueError, match="stop_after"):
        run_engine(ReservationScheduler(1, gamma=8), make_workload(50),
                   stop_after=-3)
    with pytest.raises(ValueError, match="checkpoint_every"):
        run_engine(ReservationScheduler(1, gamma=8), make_workload(50),
                   checkpoint_every=-100)


def test_auto_backend_resolution():
    seq = make_workload(60, seed=0)
    r1 = Session(ReservationScheduler(1, gamma=8), seq,
                 ExecutionPlan()).run()
    assert r1.backend == "sequential"
    r2 = Session(ReservationScheduler(1, gamma=8), seq,
                 ExecutionPlan(batch_size=16)).run()
    assert r2.backend == "batched"
    assert r1.ledger.entries == r2.ledger.entries


def test_adapters_share_the_session_loop():
    """run_sequence and run_engine are adapters: same sequence, same
    ledger, same processed counts, phase timing split preserved."""
    seq = make_workload(300, seed=8)
    rs = run_sequence(ReservationScheduler(1, gamma=8), seq)
    re_ = run_engine(ReservationScheduler(1, gamma=8), seq)
    assert rs.ledger.summary() == re_.ledger_summary
    assert rs.requests_processed == re_.requests_processed == len(seq)
    assert rs.audit_time_s >= 0 and re_.audit_time_s >= 0


def test_resume_replay_failure_follows_the_failure_policy(tmp_path):
    """A prefix replay that fails is a run failure like any other: a
    failed result (or a raise under stop_on_error) and a closed trace
    ending in a final record."""
    seq = [insert(f"j{i}", 1, 4097) for i in range(96)]
    trace = tmp_path / "run.jsonl"
    run_engine(ReservationScheduler(1, gamma=8), seq, batch_size=16,
               checkpoint_every=32, trace_path=trace, stop_after=32)
    # the aligned core rejects the unaligned window on the first replay
    resumed = run_engine(AlignedReservationScheduler(), seq, batch_size=16,
                         trace_path=trace, resume=True)
    assert resumed.failed and "not aligned" in resumed.failure
    assert resumed.resumed_from == 32 and resumed.requests_processed == 0
    final = SessionTrace.final_record(SessionTrace.read_records(trace))
    assert final is not None and final["failed"]
    with pytest.raises(InvalidRequestError):
        run_engine(AlignedReservationScheduler(), seq, batch_size=16,
                   trace_path=trace, resume=True, stop_on_error=True)
