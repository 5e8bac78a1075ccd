"""Undo-journal rollback vs a fresh replay of the committed requests.

The journal representation (tuple opcodes on a reusable arena) is free
to change because the paper's guarantees depend only on *what* a
rollback restores, never *how* — but "free to change" must be proven,
not assumed. These tests pin every rollback path in the stack to one
representation-independent reference: a fresh stack of the same type
that replays only the committed requests through the same entry point.
The reference never runs an undo primitive, so a wrong
``Interval._undo_*`` or placement-map rewind cannot hide in it. Each
test compares the deep state right after the rollback and again after
both stacks continue with the rest of the stream (so lazily rebuilt
caches must come back consistent too). The paths:

- failed-request rollback (poisoned schedulers keep exact pre-request
  state),
- deep atomic-batch aborts through the aligned, Theorem 1 (m=1, m=3)
  and deamortized stacks,
- trimming rebuilds replaced mid-batch and discarded on abort,
- process-worker crash rollback (whole-burst abort + worker re-seed,
  exercising arena reuse across bursts and across pickling).

"Bit-identical" is a deep structural fingerprint: placements, job
tables, per-interval reservations/assignments/allowances, and
window-state backed indexes — not just the public placement map.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.api import ReservationScheduler
from repro.core.exceptions import ReproError, WorkerCrashError
from repro.core.job import Job
from repro.core.requests import DeleteJob, InsertJob, iter_batches
from repro.core.window import Window
from repro.multimachine.delegation import DelegatingScheduler
from repro.reservation import AlignedReservationScheduler
from repro.reservation.deamortized import DeamortizedReservationScheduler
from repro.reservation.journal import (
    OP_PLACE,
    OP_POP,
    OP_SET,
    OP_UNPLACE,
    UndoArena,
    replay_entries,
)
from repro.reservation.trimming import TrimmedReservationScheduler
from repro.reservation.validation import validate_scheduler
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence


def make_workload(num_requests=400, seed=0, machines=1):
    cfg = AlignedWorkloadConfig(
        num_requests=num_requests, num_machines=machines, gamma=8,
        horizon=1 << 11, max_span=1 << 11, delete_fraction=0.35,
    )
    return list(random_aligned_sequence(cfg, seed=seed))


class DenseCostingScheduler(AlignedReservationScheduler):
    """Aligned scheduler costed by full placement diffs.

    It runs with no live touched log, so every placement mutation takes
    the journaled ``OP_PLACE`` / ``OP_UNPLACE`` fold instead of the
    touched-log rewind.
    """

    _sparse_costing = False


# ----------------------------------------------------------------------
# deep state fingerprints
# ----------------------------------------------------------------------
def _wkey(window):
    return (window.release, window.deadline)


def aligned_fingerprint(s: AlignedReservationScheduler):
    """Every semantic structure of the single-machine scheduler.

    That includes the eagerly maintained interval counters and indexes
    the undo primitives restore (allowance size, demand total, per-window
    assignment counts, the free-slot index, the window-state ladder
    cache, which must hold the scheduler's own window-state objects).
    Lazy memos (fulfillment targets, dirty flags) are deliberately
    excluded — a rollback invalidates them instead of restoring them,
    and ``validate_scheduler`` cross-checks them against recomputation.
    """
    intervals = tuple(
        (lv, idx, iv.lo, iv.hi, frozenset(iv.lower_occupied),
         tuple(sorted(((_wkey(w), c) for w, c in iv.dynamic_res.items()))),
         tuple(sorted((_wkey(w), tuple(sorted(slots)))
                      for w, slots in iv.assigned.items())),
         tuple(sorted(iv.slot_owner.items(),
                      key=lambda kv: kv[0])),
         iv._n_lower, iv._dyn_total, tuple(iv._counts), tuple(iv._free),
         tuple(ws is s.window_states[lv].get(w)
               for w, ws in zip(iv._windows, iv._ws)))
        for lv, table in sorted(s.intervals.items())
        for idx, iv in sorted(table.items())
    )
    window_states = tuple(
        (lv, _wkey(w), frozenset(ws.jobs),
         tuple(ws.backed_empty.snapshot()),
         tuple(ws.backed_covered.snapshot()))
        for lv, states in sorted(s.window_states.items())
        for w, ws in sorted(states.items(), key=lambda kv: _wkey(kv[0]))
    )
    return (
        dict(s.placements), dict(s.slot_job), dict(s.job_slot),
        dict(s._job_levels), set(s.jobs), s._poisoned,
        s._max_span_cache, dict(s._span_counts), intervals, window_states,
    )


def trimmed_fingerprint(s: TrimmedReservationScheduler):
    return (s.n_star, s.rebuilds, set(s.jobs), s._max_span_cache,
            aligned_fingerprint(s.inner))


def deamortized_fingerprint(s: DeamortizedReservationScheduler):
    incoming = (None if s.incoming is None
                else aligned_fingerprint(s.incoming))
    return (s.parity, s.incoming_parity, s.n_star, s.phases_started,
            s.bulk_finishes, set(s.jobs), s._max_span_cache,
            dict(s._home), dict(s._placements),
            aligned_fingerprint(s.active), incoming)


def stack_fingerprint(s):
    """Recursive fingerprint for any scheduler stack under test."""
    if isinstance(s, AlignedReservationScheduler):
        return ("aligned", aligned_fingerprint(s))
    if isinstance(s, TrimmedReservationScheduler):
        return ("trimmed", trimmed_fingerprint(s))
    if isinstance(s, DeamortizedReservationScheduler):
        return ("deamortized", deamortized_fingerprint(s))
    if isinstance(s, DelegatingScheduler):
        bal = s.balancer
        return ("delegating", dict(s.placements), set(s.jobs),
                dict(bal._count),
                {jid: (_wkey(w), m) for jid, (w, m) in bal._where.items()},
                tuple(stack_fingerprint(sub) for sub in s.machines))
    if isinstance(s, ReservationScheduler):
        return ("theorem1", set(s.jobs), dict(s._span_counts),
                len(s.ledger.entries), stack_fingerprint(s.delegator))
    raise AssertionError(f"no fingerprint for {type(s).__name__}")


def replayed(factory, committed):
    """The reference: a fresh stack fed only the committed requests."""
    reference = factory()
    for r in committed:
        reference.apply(r)
    return reference


def assert_matches_replay(subject, reference, rest):
    """Equal to the replay reference now and after both apply ``rest``."""
    assert stack_fingerprint(subject) == stack_fingerprint(reference)
    for r in rest:
        subject.apply(r)
        reference.apply(r)
    assert stack_fingerprint(subject) == stack_fingerprint(reference)


def unpoison(s: AlignedReservationScheduler) -> None:
    """Clear the poison flag so a rolled-back scheduler can continue.

    Poisoning is policy, not state: the rollback already restored the
    pre-request state, and continuing the stream from it is what shows
    that every lazily maintained cache came back consistent.
    """
    assert s.poisoned
    s._poisoned = False


# ----------------------------------------------------------------------
# the arena itself
# ----------------------------------------------------------------------
def test_arena_watermark_truncation_and_counter():
    """``truncate()`` releases every entry and clears the shared
    containers; ``entries_total`` counts what each scope released."""
    arena = UndoArena()
    d = {"a": 1}
    arena.entries.append((OP_POP, d, "b"))
    arena.entries.append((OP_SET, d, "a", 1))
    arena.seen.add("token")
    arena.intervals.append("iv")
    arena.windows.append("ws")
    arena.dicts.append("table")
    arena.created.append("created")
    d["a"], d["b"] = 5, 2
    replay_entries(arena.entries)
    assert d == {"a": 1}
    arena.truncate()
    assert arena.entries_total == 2
    assert not (arena.entries or arena.seen or arena.intervals
                or arena.windows or arena.dicts or arena.created)
    # the containers are reused, not reallocated, by the next scope
    entries = arena.entries
    entries.append((OP_POP, d, "c"))
    arena.truncate()
    assert arena.entries is entries and not entries
    assert arena.entries_total == 3
    arena.truncate()  # an empty scope counts nothing
    assert arena.entries_total == 3


def test_journal_param_validation_and_introspection(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    for bad in ("nope", "closure"):
        for build in (lambda j: AlignedReservationScheduler(journal=j),
                      lambda j: TrimmedReservationScheduler(journal=j),
                      lambda j: DeamortizedReservationScheduler(journal=j),
                      lambda j: ReservationScheduler(2, gamma=8, journal=j)):
            with pytest.raises(ValueError):
                build(bad)
    assert AlignedReservationScheduler().journal_impl == "arena"
    trimmed = TrimmedReservationScheduler(journal="arena-sanitize")
    assert trimmed.inner.journal_impl == "arena-sanitize"
    facade = ReservationScheduler(2, gamma=8, journal="arena-sanitize")
    assert all(m.journal_impl == "arena-sanitize"
               for m in facade.machine_schedulers())


def test_journal_entry_counter_survives_aborted_rebuild():
    """An atomic abort that discards a mid-batch rebuild inner also
    rolls back the rebuild's carry increment — the counter must not
    double count the restored inner's lifetime entries. (The counter
    still grows by the aborted batch's own recorded entries: it counts
    journaling work done, not surviving state.)"""
    sched = TrimmedReservationScheduler(gamma=8, min_n_star=4)
    warm = make_workload(60, seed=29)
    for r in warm:
        sched.apply(r)
    pre_total = sched.journal_entries_total
    pre_carry = sched._journal_entries_carry
    pre_inner_total = sched.inner.journal_entries_total
    bad = [InsertJob(Job(f"g{i}", Window(0, 1 << 10)))
           for i in range(2 * sched.n_star + 4)]
    bad.append(InsertJob(Job("g0", Window(0, 1 << 10))))  # dup -> abort
    result = sched.apply_batch(bad, atomic=True)
    assert result.failed and result.rolled_back
    # the rebuild bumped the carry mid-batch; the abort restored it
    assert sched._journal_entries_carry == pre_carry
    # total grew only by the batch's own journal entries (recorded in
    # the restored inner's arena at abort) — not by a double count of
    # the pre-batch inner's lifetime (which would add >= pre_total)
    batch_entries = sched.inner.journal_entries_total - pre_inner_total
    assert sched.journal_entries_total == pre_total + batch_entries
    assert batch_entries < pre_total


def test_deamortized_counter_exists_and_carries_phases():
    """The deamortized stack exposes the same introspection as every
    other stack, and retired phase inners keep their counts."""
    sched = DeamortizedReservationScheduler(min_n_star=4)
    seq = make_workload(300, seed=31)
    counts = []
    for r in seq:
        sched.apply(r)
        counts.append(sched.journal_entries_total)
    assert sched.phases_started > 0
    assert counts == sorted(counts)  # monotone: phase swaps drop nothing
    assert counts[-1] > 0
    facade = ReservationScheduler(1, gamma=8, deamortized=True)
    for r in seq[:50]:
        facade.apply(r)
    assert sum(m.journal_entries_total
               for m in facade.machine_schedulers()) > 0


def test_journal_entry_counter_counts_both_modes():
    """The plain and the sanitized arena record the same entries."""
    seq = make_workload(120, seed=21)
    plain = AlignedReservationScheduler(journal="arena")
    checked = AlignedReservationScheduler(journal="arena-sanitize")
    for r in seq:
        plain.apply(r)
        checked.apply(r)
    assert plain.journal_entries_total > 0
    assert plain.journal_entries_total == checked.journal_entries_total
    assert stack_fingerprint(plain) == stack_fingerprint(checked)


# ----------------------------------------------------------------------
# failed-request rollback (poisoned schedulers)
# ----------------------------------------------------------------------
#: a 512-slot region beyond the workload horizon (2048): crowding it
#: never interacts with the workload's jobs
CROWD = 1 << 12


def crowd_until_failure(sched, seed):
    """Insert random aligned jobs into the :data:`CROWD` region until
    one fails; return the committed inserts and the failing job.

    Spans run from 8 to 512, so two reservation levels interact. The
    failure comes deep inside the insert, after reservation changes,
    revocations, moves (with their ancestor-interval swaps) and
    displacements, so the rollbacks replay every kind of journal
    entry."""
    rng = random.Random(seed)
    committed = []
    for i in itertools.count():
        span = 1 << rng.randrange(3, 10)
        release = CROWD + rng.randrange(512 // span) * span
        job = Job(f"crowd-{seed}-{i}", Window(release, release + span))
        try:
            sched.insert(job)
        except ReproError:
            return committed, job
        committed.append(InsertJob(job))


#: crowd runs per poisoned-request case; about every other run fails
#: after moving a job into an empty slot
CROWD_RUNS = 6


def _poisoned_matches_replay(factory, seq, crowd_seed):
    """Apply ``seq[:200]``, crowd the region until an insert fails; the
    rolled-back state must equal a replay of everything committed."""
    prefix, rest = seq[:200], seq[200:]
    sched = replayed(factory, prefix)
    crowd, _ = crowd_until_failure(sched, crowd_seed)
    assert sched.poisoned
    # the crowded region is past its Lemma 8 margin (that is why the
    # last insert failed); every other invariant must hold
    validate_scheduler(sched, check_lemma8=False)
    unpoison(sched)
    assert_matches_replay(sched, replayed(factory, prefix + crowd), rest)


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_poisoned_request_state_identical(seed):
    """A failing insert rolls back to the exact state of a scheduler
    that never saw it, then poisons the scheduler."""
    seq = make_workload(250, seed=seed)
    for crowd_seed in range(seed, seed + CROWD_RUNS):
        _poisoned_matches_replay(AlignedReservationScheduler, seq, crowd_seed)


@pytest.mark.parametrize("seed", [3, 11])
def test_random_failing_deletes_and_inserts_identical(seed):
    """Random churn with interleaved failing requests — ghost deletes,
    duplicate inserts and deep infeasible inserts that roll back and
    poison: after every failure the state equals a lockstep replay of
    the successes."""
    rng = random.Random(seed)
    seq = make_workload(300, seed=seed)
    crowd, poison = crowd_until_failure(AlignedReservationScheduler(), seed)
    sched = replayed(AlignedReservationScheduler, crowd)
    reference = replayed(AlignedReservationScheduler, crowd)
    kinds = set()
    for i, r in enumerate(seq):
        sched.apply(r)
        reference.apply(r)
        if rng.random() < 0.15:
            kind = rng.choice(("ghost", "duplicate", "infeasible"))
            bad = {"ghost": DeleteJob(f"ghost-{i}"),
                   "duplicate": crowd[0],
                   "infeasible": InsertJob(Job(f"deep-{i}", poison.window)),
                   }[kind]
            with pytest.raises(ReproError):
                sched.apply(bad)
            if kind == "infeasible":
                unpoison(sched)
            kinds.add(kind)
            assert stack_fingerprint(sched) == stack_fingerprint(reference)
    assert kinds == {"ghost", "duplicate", "infeasible"}
    assert stack_fingerprint(sched) == stack_fingerprint(reference)


# ----------------------------------------------------------------------
# deep atomic aborts
# ----------------------------------------------------------------------
STACKS = [
    ("aligned", 1, lambda: AlignedReservationScheduler()),
    ("theorem1-m1", 1, lambda: ReservationScheduler(1, gamma=8)),
    ("theorem1-m3", 3, lambda: ReservationScheduler(3, gamma=8)),
    ("deamortized", 1,
     lambda: ReservationScheduler(1, gamma=8, deamortized=True)),
]

#: the duplicate insert fails at the burst's last request — a deep
#: abort after the whole burst (trimming rebuilds included) applied
DUP_TAIL = [InsertJob(Job("dup", Window(0, 64))),
            InsertJob(Job("dup", Window(0, 64)))]


@pytest.mark.parametrize("name,machines,factory", STACKS)
def test_atomic_abort_state_identical(name, machines, factory):
    """A failing atomic batch aborts to the deep state of a stack that
    never saw the batch, and both continue to the same end state."""
    seq = make_workload(420, seed=9, machines=machines)
    prefix, inside, after = seq[:200], seq[200:260], seq[260:]
    sched = replayed(factory, prefix)
    result = sched.apply_batch(inside + DUP_TAIL, atomic=True)
    assert result.failed and result.rolled_back
    assert_matches_replay(sched, replayed(factory, prefix), inside + after)


def test_trimming_rebuild_abort_identical():
    """An atomic batch that replaces the trimming inner mid-batch and
    then aborts: the pre-batch inner swaps back, equal to a replay of
    the warm-up, and the discarded rebuild inner cost no journal
    entries."""
    def factory():
        return TrimmedReservationScheduler(gamma=8, min_n_star=4)

    warm = make_workload(60, seed=13)
    sched = replayed(factory, warm)
    n_star = sched.n_star
    # enough inserts to force a doubling rebuild inside the batch, then
    # a guaranteed failure (duplicate id)
    grow = [InsertJob(Job(f"grow-{i}", Window(0, 1 << 10)))
            for i in range(2 * n_star + 4)]
    bad = grow + [InsertJob(Job("grow-0", Window(0, 1 << 10)))]
    entries_before = sched.journal_entries_total
    result = sched.apply_batch(bad, atomic=True)
    assert result.failed and result.rolled_back
    assert sched.rebuilds == 0 or sched.n_star == n_star  # rebuild discarded
    # atomic batches journal interval mutations but the ephemeral
    # rebuild inner records nothing
    assert sched.journal_entries_total >= entries_before
    reference = replayed(factory, warm)
    # rebuilds still work after the abort
    assert_matches_replay(sched, reference, grow)
    assert sched.rebuilds == reference.rebuilds > 0


def test_sequential_rebuild_journal_diet_oracle_unchanged():
    """Non-atomic rebuilds skip the journal entirely and end
    bit-identical to a fully journaled run."""
    seq = make_workload(400, seed=17)
    diet = TrimmedReservationScheduler(gamma=8)
    oracle = TrimmedReservationScheduler(gamma=8)
    oracle.rebuild_journal_diet = False  # instance-level: full journaling
    for r in seq:
        diet.apply(r)
        oracle.apply(r)
    assert diet.rebuilds == oracle.rebuilds > 0
    assert stack_fingerprint(diet) == stack_fingerprint(oracle)


# ----------------------------------------------------------------------
# process-worker crash rollback
# ----------------------------------------------------------------------
def _sharded(sched, requests):
    for chunk in iter_batches(requests, 32):
        result = sched.apply_batch_sharded(chunk, workers="processes")
        assert not result.failed, result.failure


def _crash_matches_replay(seq, split, crash_after):
    """Crash a worker mid-burst; the rolled-back stack must equal a
    fresh one fed the committed prefix through the same entry point,
    before and after both retry the burst and finish the stream."""
    prefix, burst, rest = seq[:split], seq[split:split + 32], seq[split + 32:]
    sched = ReservationScheduler(3, gamma=8)
    reference = ReservationScheduler(3, gamma=8)
    try:
        _sharded(sched, prefix)
        sched.delegator._shard_pool.crash_worker_after(1, crash_after)
        result = sched.apply_batch_sharded(burst, workers="processes")
        assert result.failed and result.rolled_back
        assert isinstance(result.error, WorkerCrashError)
        _sharded(reference, prefix)
        # sync both back and compare the rolled-back state deeply
        sched.close_shard_workers()
        reference.close_shard_workers()
        assert stack_fingerprint(sched) == stack_fingerprint(reference)
        # the same burst retries cleanly on the re-seeded workers
        _sharded(sched, burst + rest)
        _sharded(reference, burst + rest)
        sched.close_shard_workers()
        reference.close_shard_workers()
        assert stack_fingerprint(sched) == stack_fingerprint(reference)
        assert sched.ledger.entries == reference.ledger.entries
    finally:
        sched.close_shard_workers()
        reference.close_shard_workers()
    return sched


def test_procworker_crash_rollback_identical():
    """A worker process dying mid-burst rolls the whole burst back (the
    arena crossing the pickle boundary and being reused across bursts),
    and the stack recovers to the sequential end state."""
    seq = make_workload(500, seed=19, machines=3)
    sched = _crash_matches_replay(seq, 256, 2)
    sequential = replayed(lambda: ReservationScheduler(3, gamma=8), seq)
    assert dict(sched.placements) == dict(sequential.placements)
    assert sched.ledger.entries == sequential.ledger.entries


def test_unpickled_scheduler_gets_fresh_arena():
    import pickle

    sched = AlignedReservationScheduler()
    for r in make_workload(80, seed=2):
        sched.apply(r)
    clone = pickle.loads(pickle.dumps(sched))
    assert clone._arena is not sched._arena
    assert not clone._arena.entries and clone._arena.entries_total == 0
    # the restored scheduler journals and rolls back normally
    clone.insert(Job("fill2", Window(2, 3)))
    assert aligned_fingerprint(clone)[:5] != aligned_fingerprint(sched)[:5]


# ----------------------------------------------------------------------
# placement-map journal diet (touched-log rewind replaces per-map entries)
# ----------------------------------------------------------------------
def _counting_scheduler(deltas, base=AlignedReservationScheduler):
    """Scheduler recording journal-entry deltas per placement mutation
    (only while a request journal is open)."""

    class Counting(base):
        def _set_placement(self, job_id, slot):
            before = None if self._journal is None else len(self._journal)
            super()._set_placement(job_id, slot)
            if before is not None:
                deltas.append(len(self._journal) - before)

        def _clear_placement(self, job_id, slot):
            before = None if self._journal is None else len(self._journal)
            super()._clear_placement(job_id, slot)
            if before is not None:
                deltas.append(len(self._journal) - before)

    return Counting()


def test_placement_fold_journals_one_entry_not_three():
    """Entry-count pin for the fold: with a live touched log a
    placement mutation journals nothing; without one (dense costing)
    it journals exactly ONE combined opcode, not three per-map
    entries."""
    seq = make_workload(200, seed=7)

    diet_deltas: list[int] = []
    diet = _counting_scheduler(diet_deltas)
    fold_deltas: list[int] = []
    fold = _counting_scheduler(fold_deltas, DenseCostingScheduler)

    for r in seq:
        diet.apply(r)
        fold.apply(r)

    assert stack_fingerprint(diet) == stack_fingerprint(fold)
    # both saw the same (nonzero) placement mutation traffic
    assert len(diet_deltas) == len(fold_deltas) > 0
    assert set(diet_deltas) == {0}, "diet must skip placement journaling"
    assert set(fold_deltas) == {1}, "fold must journal one combined entry"


@pytest.mark.parametrize("seed", [5, 23])
def test_placement_diet_poisoned_request_identical(seed):
    """A failing insert rolls back to the replay reference both through
    the touched-log rewind and through the journaled ``OP_PLACE`` /
    ``OP_UNPLACE`` fold (dense costing)."""
    seq = make_workload(250, seed=seed)
    for crowd_seed in range(seed, seed + CROWD_RUNS):
        for factory in (AlignedReservationScheduler, DenseCostingScheduler):
            _poisoned_matches_replay(factory, seq, crowd_seed)


def _placement_map_entries(entries, sched):
    """Journal entries that restore one of ``sched``'s placement maps."""
    maps = {id(sched._placements), id(sched.job_slot), id(sched.slot_job)}
    return [e for e in entries
            if e[0] in (OP_PLACE, OP_UNPLACE)
            or (e[0] in (OP_POP, OP_SET) and id(e[1]) in maps)]


@pytest.mark.parametrize("name,machines,factory", STACKS[:3])
def test_placement_diet_atomic_abort_identical(name, machines, factory,
                                               monkeypatch):
    """An atomic abort rewinds the placement maps from the batch
    touched log alone: the batch journal holds no placement-map entry,
    yet the aborted stack equals the replay reference."""
    seq = make_workload(420, seed=29, machines=machines)
    prefix, inside, after = seq[:200], seq[200:260], seq[260:]
    journaled = []
    restore = AlignedReservationScheduler._batch_restore

    def spy(self, ctx):
        if self._abatch is not None:
            journaled.extend(_placement_map_entries(self._abatch.journal,
                                                    self))
        restore(self, ctx)

    monkeypatch.setattr(AlignedReservationScheduler, "_batch_restore", spy)
    sched = replayed(factory, prefix)
    result = sched.apply_batch(inside + DUP_TAIL, atomic=True)
    assert result.failed and result.rolled_back
    assert journaled == []
    assert_matches_replay(sched, replayed(factory, prefix), inside + after)


def test_placement_diet_procworker_crash_identical():
    """A worker process dying before its first op of a burst: the
    surviving workers abort their applied ops (placement maps rewound
    from their batch touched logs), the dead one is re-seeded, and the
    stack matches the replay reference too."""
    _crash_matches_replay(make_workload(400, seed=31, machines=3), 192, 0)
