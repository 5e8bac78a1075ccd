"""Round-robin per-window delegation (Section 3).

The paper reduces m-machine scheduling to single-machine scheduling by
balancing, *per window*, the jobs across machines: if ``n_W`` jobs share
window ``W``, every machine holds between ``floor(n_W/m)`` and
``ceil(n_W/m)`` of them, with the extras on the earliest machines. The
invariant is maintained with at most one migration per request:

- insert: the new job goes to machine ``n_W mod m`` (0-indexed; the
  paper's ``(n_W + 1) mod m`` is the 1-indexed equivalent);
- delete from machine ``i``: the balance donor is machine
  ``(n_W - 1) mod m`` (the last machine holding an extra job); if
  ``i`` differs, one of the donor's ``W``-jobs migrates to machine ``i``.

Lemma 3 guarantees each machine's sub-instance stays 1-machine
underallocated (losing a factor 6) when the full instance is; the
delegator is scheduler-agnostic and works over any per-machine
:class:`~repro.core.base.ReallocatingScheduler` factory.

Sharded burst execution: because machines never share scheduler state
(the balancer is the only coupling, and it is pure bookkeeping), a whole
burst can be resolved up front into independent per-machine op streams
(:meth:`DelegatingScheduler.plan_shard_execution` — the richer sibling
of :meth:`DelegatingScheduler.machine_sub_batches`) and applied by one
:class:`ShardWorker` per machine, run serially in-process.
:meth:`DelegatingScheduler.apply_batch_sharded` then merges the
per-shard touched-placement logs back into the machine-tagged placement
map, balancer, and ledger in global request order — bit-identical to
sequential processing, with whole-burst rollback on any shard failure.
The sharded drive backend (:mod:`repro.sim.session`) is its consumer.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Mapping

from ..core.base import (
    ReallocatingScheduler,
    _BatchContext,
    resolve_batch_semantics,
)
from ..core.costs import BatchResult, RequestCost, diff_touched
from ..core.exceptions import InvalidRequestError, ReproError
from ..core.job import Job, JobId, Placement
from ..core.requests import Batch, DeleteJob, InsertJob, Request
from ..core.window import Window

_NOT_SEEN = object()


def _fresh_member_sets(m: int) -> list[set[JobId]]:
    """One empty job-id set per machine (a balancer membership table)."""
    return [set() for _ in range(m)]


def _failure_index(failure: tuple[int, ReproError]) -> int:
    """Sort key for shard failures: the failing request's global index."""
    return failure[0]


def _changed_ids(sub: ReallocatingScheduler, cost: RequestCost,
                 subject: JobId) -> tuple[JobId, ...]:
    """Ids whose placement a sub-request may have changed.

    A sparse sub-scheduler's ``last_touched`` names every job whose
    placement it may have changed (batch mode suspends sub-costs, so
    the touched log is the one signal available in both modes); a
    non-sparse sub reports them via ``cost.subject`` +
    ``cost.rescheduled``. The request's subject is included explicitly
    — a trimming rebuild suspends its inner touched logs, so the
    triggering job may be absent from them. Shared by the live merge
    (:meth:`DelegatingScheduler._sync_machine`) and the deferred one
    (:class:`ShardWorker`), whose equivalence depends on reading the
    same set.
    """
    changed = sub.last_touched
    if changed is None:
        return (cost.subject, *cost.rescheduled)
    if subject not in changed:
        return (subject, *changed)
    return tuple(changed)


class WindowBalancer:
    """Tracks per-window job counts and machine membership.

    Pure bookkeeping — it decides *where* jobs go; the schedulers decide
    *when* they run. Kept separate from the scheduler wrapper so the
    balance invariant can be unit-tested in isolation.

    Per-window counts are maintained incrementally (O(1) round-robin
    choice instead of an O(m) sum), and mutations can be recorded in a
    transaction log (:meth:`begin_txn`) that :meth:`abort_txn` replays
    backwards — the delegation layer's share of atomic-batch rollback.
    """

    def __init__(self, num_machines: int) -> None:
        if num_machines < 1:
            raise ValueError("num_machines must be >= 1")
        self.m = num_machines
        #: window -> list of per-machine job-id sets
        self._members: dict[Window, list[set[JobId]]] = {}
        #: job id -> (window, machine)
        self._where: dict[JobId, tuple[Window, int]] = {}
        #: window -> total job count (incremental; absent = 0)
        self._count: dict[Window, int] = {}
        #: open transaction log (None outside an atomic batch)
        self._oplog: list[tuple] | None = None

    def count(self, window: Window) -> int:
        return self._count.get(window, 0)

    def machine_of(self, job_id: JobId) -> int:
        return self._where[job_id][1]

    def window_of(self, job_id: JobId) -> Window:
        return self._where[job_id][0]

    def choose_insert_machine(self, window: Window) -> int:
        """Machine for a new job with this window: round-robin position."""
        return self._count.get(window, 0) % self.m

    # ------------------------------------------------------------------
    # transaction log (atomic-batch rollback)
    # ------------------------------------------------------------------
    def begin_txn(self) -> None:
        self._oplog = []

    def commit_txn(self) -> None:
        self._oplog = None

    def abort_txn(self) -> None:
        """Replay the transaction log backwards, restoring pre-txn state."""
        ops, self._oplog = self._oplog, None
        if ops is None:
            return
        members = self._members
        where = self._where
        count = self._count
        for op in reversed(ops):
            kind = op[0]
            if kind == "ins":
                self._unrecord_insert(op[1])
            elif kind == "del":
                _, job_id, window, machine = op
                table = members.get(window)
                if table is None:
                    table = members[window] = _fresh_member_sets(self.m)
                table[machine].add(job_id)
                where[job_id] = (window, machine)
                count[window] = count.get(window, 0) + 1
            else:  # "mig"
                _, job_id, window, old = op
                new = where[job_id][1]
                members[window][new].discard(job_id)
                members[window][old].add(job_id)
                where[job_id] = (window, old)

    def record_insert(self, job_id: JobId, window: Window, machine: int) -> None:
        members = self._members.setdefault(window, _fresh_member_sets(self.m))
        members[machine].add(job_id)
        self._where[job_id] = (window, machine)
        self._count[window] = self._count.get(window, 0) + 1
        if self._oplog is not None:
            self._oplog.append(("ins", job_id))

    def _unrecord_insert(self, job_id: JobId) -> None:
        window, machine = self._where.pop(job_id)
        members = self._members[window]
        members[machine].discard(job_id)
        n = self._count[window] - 1
        if n:
            self._count[window] = n
        else:
            del self._count[window]
        if not any(members):
            del self._members[window]

    def plan_delete(self, job_id: JobId) -> tuple[int, JobId | None]:
        """Plan a deletion: returns (machine of job, migrating job or None).

        The migrating job restores the balance invariant: it is one of
        the donor machine's jobs with the same window, moved onto the
        machine that lost a job. None when the deleted job's machine is
        itself the donor.
        """
        window, machine = self._where[job_id]
        members = self._members[window]
        donor = (self.count(window) - 1) % self.m
        if donor == machine:
            return machine, None
        candidates = members[donor] - {job_id}
        if not candidates:  # pragma: no cover - invariant guarantees a donor job
            raise AssertionError(
                f"balance invariant broken: donor machine {donor} holds no "
                f"job with window {window}"
            )
        # Deterministic choice: smallest by string representation.
        mover = min(candidates, key=str)
        return machine, mover

    def record_delete(self, job_id: JobId) -> None:
        window, machine = self._where.pop(job_id)
        members = self._members[window]
        members[machine].discard(job_id)
        n = self._count[window] - 1
        if n:
            self._count[window] = n
        else:
            del self._count[window]
        if not any(members):
            del self._members[window]
        if self._oplog is not None:
            self._oplog.append(("del", job_id, window, machine))

    def record_migration(self, job_id: JobId, to_machine: int) -> None:
        window, old = self._where[job_id]
        self._members[window][old].discard(job_id)
        self._members[window][to_machine].add(job_id)
        self._where[job_id] = (window, to_machine)
        if self._oplog is not None:
            self._oplog.append(("mig", job_id, window, old))

    def check_balance(self) -> None:
        """Assert the floor/ceil balance invariant for every window."""
        for window, members in self._members.items():
            counts = [len(s) for s in members]
            total = sum(counts)
            if total != self._count.get(window, 0):
                raise AssertionError(
                    f"window {window}: incremental count "
                    f"{self._count.get(window, 0)} != actual {total}"
                )
            lo, hi = total // self.m, -(-total // self.m)
            for i, c in enumerate(counts):
                if not lo <= c <= hi:
                    raise AssertionError(
                        f"window {window}: machine {i} holds {c} jobs, "
                        f"expected in [{lo}, {hi}]"
                    )
            # extras must sit on the earliest machines (paper's invariant)
            extras = [i for i, c in enumerate(counts) if c == hi]
            if hi > lo and extras and max(extras) >= total % self.m:
                raise AssertionError(
                    f"window {window}: extra jobs not on earliest machines "
                    f"(counts {counts})"
                )


class ShardOp:
    """One per-machine operation of a planned sharded burst.

    ``req_index`` ties the op back to the batch request that caused it
    (a rebalancing migration contributes a delete op on the donor shard
    and an insert op on the receiving shard, both tagged with the
    triggering delete's index). The worker fills ``changed`` / ``post``
    while applying: the ids whose sub-placement the op changed and their
    post-op sub-level placements — the raw material of the merge phase.
    """

    __slots__ = ("req_index", "machine", "insert", "job", "job_id",
                 "changed", "post")

    def __init__(self, req_index: int, machine: int, insert: bool,
                 job: Job | None, job_id: JobId) -> None:
        self.req_index = req_index
        self.machine = machine
        self.insert = insert
        self.job = job
        self.job_id = job_id
        self.changed: tuple[JobId, ...] = ()
        self.post: dict[JobId, Placement | None] = {}


class PlannedRequest:
    """One batch request resolved to its shard ops and balancer effects."""

    __slots__ = ("kind", "subject", "job", "ops", "balancer_ops")

    def __init__(self, kind: str, subject: JobId, job: Job | None,
                 ops: list[ShardOp], balancer_ops: list[tuple]) -> None:
        self.kind = kind
        self.subject = subject
        self.job = job
        self.ops = ops
        self.balancer_ops = balancer_ops


class ShardPlan:
    """A burst split into independent per-machine op streams.

    ``requests`` holds the global-order view (one entry per batch
    request); ``per_machine`` the same ops partitioned by shard, each
    shard's list in global op order. The two views share the
    :class:`ShardOp` objects, so worker results are visible to the
    merge phase without any copying.
    """

    __slots__ = ("requests", "per_machine")

    def __init__(self, requests: list[PlannedRequest],
                 per_machine: dict[int, list[ShardOp]]) -> None:
        self.requests = requests
        self.per_machine = per_machine


class ShardWorker:
    """Applies one machine's op stream to its single-machine scheduler.

    Workers are mutually independent: each touches only its own
    sub-scheduler (whose atomic batch context the caller opened — the
    context's rollback journal lives on that sub-scheduler's own
    arena, so workers share no journal state and consecutive bursts
    reuse each sub's storage). Per op the worker records exactly what
    :meth:`DelegatingScheduler._sync_machine` would read live — the
    changed job ids (``last_touched`` for sparse subs, the request cost
    for non-sparse ones, the subject always included) and their post-op
    sub placements. A :class:`~repro.core.exceptions.ReproError` stops
    the worker and is reported in :attr:`failure` for the coordinator's
    all-shard abort.
    """

    def __init__(self, machine: int, sub: ReallocatingScheduler,
                 ops: list[ShardOp]) -> None:
        self.machine = machine
        self.sub = sub
        self.ops = ops
        self.failure: tuple[int, ReproError] | None = None

    def run(self) -> None:
        sub = self.sub
        for op in self.ops:
            try:
                if op.insert:
                    cost = sub.insert(op.job)
                else:
                    cost = sub.delete(op.job_id)
            except ReproError as exc:
                self.failure = (op.req_index, exc)
                return
            sub_placements = sub.placements
            op.changed = _changed_ids(sub, cost, op.job_id)
            post: dict[JobId, Placement | None] = {}
            for jid in op.changed:
                post[jid] = sub_placements.get(jid)
            op.post = post


class DelegatingScheduler(ReallocatingScheduler):
    """m-machine scheduler: per-window round-robin over single-machine schedulers.

    Parameters
    ----------
    num_machines:
        Machine count m.
    scheduler_factory:
        Builds the per-machine single-machine scheduler (any
        :class:`ReallocatingScheduler` with ``num_machines == 1``).

    Guarantees (Section 3): at most one migration per request, and the
    per-machine instances satisfy the ceil(n_W/m) bound of Lemma 3.
    """

    _sparse_costing = True

    def __init__(
        self,
        num_machines: int,
        scheduler_factory: Callable[[], ReallocatingScheduler],
    ) -> None:
        super().__init__(num_machines=num_machines)
        self.machines = [scheduler_factory() for _ in range(num_machines)]
        for i, sub in enumerate(self.machines):
            if sub.num_machines != 1:
                raise ValueError(f"sub-scheduler {i} is not single-machine")
        self.balancer = WindowBalancer(num_machines)
        #: merged machine-tagged placement map, maintained incrementally
        #: from the sub-schedulers' touched logs / request costs
        self._placements: dict[JobId, Placement] = {}
        #: per-batch round-robin plan: window -> machine queue for the
        #: batch's grouped inserts (invalidated per window by deletes)
        self._batch_plan: dict[Window, deque[int]] = {}

    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self._placements

    def _sync_machine(self, machine: int, cost: RequestCost,
                      subject: JobId) -> None:
        """Mirror one sub-request's placement changes into the merged map.

        The changed set comes from :func:`_changed_ids` (shared with the
        sharded merge path); syncing it keeps the merged map O(changes)
        per request.
        """
        sub = self.machines[machine]
        sub_placements = sub.placements
        placements = self._placements
        for job_id in _changed_ids(sub, cost, subject):
            self._log_touch(job_id)
            pl = sub_placements.get(job_id)
            if pl is None:
                placements.pop(job_id, None)
            else:
                placements[job_id] = Placement(machine, pl.slot)

    def _apply_insert(self, job: Job) -> None:
        plan = self._batch_plan
        if plan:
            queue = plan.get(job.window)
            machine = (queue.popleft() if queue
                       else self.balancer.choose_insert_machine(job.window))
        else:
            machine = self.balancer.choose_insert_machine(job.window)
        cost = self.machines[machine].insert(job)
        self.balancer.record_insert(job.id, job.window, machine)
        self._sync_machine(machine, cost, job.id)

    def _apply_delete(self, job: Job) -> None:
        if self._batch_plan:
            # A delete changes this window's round-robin position: the
            # rest of its planned insert machines would be stale.
            self._batch_plan.pop(self.balancer.window_of(job.id), None)
        machine, mover = self.balancer.plan_delete(job.id)
        cost = self.machines[machine].delete(job.id)
        self.balancer.record_delete(job.id)
        self._sync_machine(machine, cost, job.id)
        if mover is not None:
            # The single migration: mover leaves the donor machine and
            # re-enters on the machine that lost a job.
            donor = self.balancer.machine_of(mover)
            mover_job = self.machines[donor].jobs[mover]
            cost = self.machines[donor].delete(mover)
            self._sync_machine(donor, cost, mover)
            cost = self.machines[machine].insert(mover_job)
            self._sync_machine(machine, cost, mover)
            self.balancer.record_migration(mover, machine)

    # ------------------------------------------------------------------
    # batch lifecycle and per-window grouping
    # ------------------------------------------------------------------
    def supports_atomic_batches(self) -> bool:
        return all(sub.supports_atomic_batches() for sub in self.machines)

    def _flexible_insert_order_key(self) -> "Callable[[Job], Any] | None":
        """Adopt the per-machine sub-schedulers' preferred joint order."""
        return self.machines[0]._flexible_insert_order_key()

    def _flexible_size_hint(self, deletes: list[DeleteJob],
                            inserts: list[Job]) -> None:
        """Forward the planned net size change to each machine.

        Deletes are counted on the machine holding the job; inserts are
        not yet assigned to machines at hint time, so every machine
        receives the full insert list as its upper bound. An n*
        overshoot from the bound only widens trim spans, which is safe
        (see :meth:`TrimmedReservationScheduler._flexible_size_hint`).
        """
        per_machine: list[list[DeleteJob]] = [
            [] for _ in range(self.num_machines)
        ]
        machine_of = self.balancer.machine_of
        for request in deletes:
            per_machine[machine_of(request.job_id)].append(request)
        for machine, sub in enumerate(self.machines):
            sub._flexible_size_hint(per_machine[machine], inserts)

    def _batch_prepare(self, inserts: list[Job], *,
                       flexible: bool = False) -> None:
        """Group the batch's inserts per window and plan their machines.

        The plan is the round-robin continuation for each window's
        grouped inserts, computed once per batch instead of per request;
        a mid-batch delete of a window drops that window's remaining
        plan (its round-robin position moved) and those inserts fall
        back to the live choice. Sequential equivalence is exact: the
        planned machine equals ``choose_insert_machine`` at apply time.
        A flexible batch's insert phase runs after its coalesced
        deletes with no deletes interleaved, so the same plan built
        from the live (post-delete) counts is exact there too.
        """
        groups: dict[Window, int] = {}
        for job in inserts:
            groups[job.window] = groups.get(job.window, 0) + 1
        m = self.num_machines
        count = self.balancer.count
        self._batch_plan = {
            window: deque((count(window) + i) % m for i in range(n))
            for window, n in groups.items()
        }

    def machine_sub_batches(
        self, requests: Batch | Iterable[Request],
    ) -> dict[int, list[Request]]:
        """Split a batch into the per-machine sub-batches it would drive.

        Planning only — nothing is applied. A thin view over
        :meth:`plan_shard_execution`: every insert lands on exactly the
        machine ``apply_batch`` would choose and deletes go to the
        machine holding the job (including machines reached by earlier
        in-batch migrations). Rebalancing migrations themselves are not
        part of this view — :class:`ShardPlan` carries them as extra
        shard ops. This is what the sharded drive backend consumes: one
        sub-batch per shard worker.
        """
        batch = requests if isinstance(requests, Batch) else Batch(requests)
        plan = self.plan_shard_execution(batch)
        out: dict[int, list[Request]] = {i: [] for i in range(self.num_machines)}
        for request, planned in zip(batch, plan.requests):
            out[planned.ops[0].machine].append(request)
        return out

    def _sim_count(self, counts: dict[Window, int], window: Window) -> int:
        """Simulated per-window count: burst overlay over the live balancer."""
        c = counts.get(window)
        if c is None:
            c = counts[window] = self.balancer.count(window)
        return c

    def _sim_members(self, members: dict[Window, list[set[JobId]]],
                     window: Window) -> list[set[JobId]]:
        """Simulated per-window membership: copy-on-first-touch overlay."""
        ms = members.get(window)
        if ms is None:
            live = self.balancer._members.get(window)
            ms = ([set(s) for s in live] if live is not None
                  else _fresh_member_sets(self.num_machines))
            members[window] = ms
        return ms

    def plan_shard_execution(
        self, requests: Batch | Iterable[Request],
    ) -> ShardPlan:
        """Resolve a burst into independent per-machine op streams.

        The whole burst is simulated against copy-on-first-touch
        overlays of the balancer's per-window counts and memberships:
        inserts advance each window's round-robin position, deletes
        retract it and — exactly as :meth:`WindowBalancer.plan_delete`
        would at apply time — pick the donor machine and migrating job,
        so cross-shard rebalancing migrations become an explicit
        (delete-on-donor, insert-on-receiver) op pair. Because machines
        never share scheduler state (the balancer is the only coupling,
        and it is fully simulated here), each machine's op stream can
        be applied independently and still reproduce sequential
        execution bit for bit.

        Raises :class:`InvalidRequestError` for protocol violations
        (insert of an active id, delete of an inactive id) — nothing
        has been applied at that point.
        """
        batch = requests if isinstance(requests, Batch) else Batch(requests)
        m = self.num_machines
        balancer = self.balancer
        where_live = balancer._where
        counts: dict[Window, int] = {}
        members: dict[Window, list[set[JobId]]] = {}
        #: overlay of (window, machine) per job; None = deleted in batch
        where: dict[JobId, tuple[Window, int] | None] = {}
        batch_jobs: dict[JobId, Job] = {}

        planned: list[PlannedRequest] = []
        for index, request in enumerate(batch):
            if isinstance(request, InsertJob):
                job = request.job
                jid = job.id
                if where.get(jid) is not None or (
                        jid not in where and jid in self.jobs):
                    raise InvalidRequestError(f"job {jid!r} already active")
                w = job.window
                c = self._sim_count(counts, w)
                machine = c % m
                counts[w] = c + 1
                self._sim_members(members, w)[machine].add(jid)
                where[jid] = (w, machine)
                batch_jobs[jid] = job
                planned.append(PlannedRequest(
                    "insert", jid, job,
                    [ShardOp(index, machine, True, job, jid)],
                    [("ins", jid, w, machine)],
                ))
            else:
                jid = request.job_id
                spot = where.get(jid, _NOT_SEEN)
                if spot is _NOT_SEEN:
                    spot = where_live.get(jid)
                if spot is None:
                    raise InvalidRequestError(f"job {jid!r} not active")
                w, machine = spot
                c = self._sim_count(counts, w)
                mem = self._sim_members(members, w)
                donor = (c - 1) % m
                mover: JobId | None = None
                if donor != machine:
                    candidates = mem[donor] - {jid}
                    if not candidates:  # pragma: no cover - invariant
                        raise AssertionError(
                            f"balance invariant broken: donor machine {donor} "
                            f"holds no job with window {w}"
                        )
                    mover = min(candidates, key=str)
                counts[w] = c - 1
                mem[machine].discard(jid)
                where[jid] = None
                ops = [ShardOp(index, machine, False, None, jid)]
                balancer_ops: list[tuple] = [("del", jid)]
                if mover is not None:
                    mover_job = batch_jobs.get(mover)
                    if mover_job is None:
                        mover_job = self.jobs[mover]
                    ops.append(ShardOp(index, donor, False, None, mover))
                    ops.append(ShardOp(index, machine, True, mover_job, mover))
                    balancer_ops.append(("mig", mover, machine))
                    mem[donor].discard(mover)
                    mem[machine].add(mover)
                    where[mover] = (w, machine)
                planned.append(PlannedRequest(
                    "delete", jid, None, ops, balancer_ops))
        per_machine: dict[int, list[ShardOp]] = {i: [] for i in range(m)}
        for pr in planned:
            for op in pr.ops:
                per_machine[op.machine].append(op)
        return ShardPlan(planned, per_machine)

    # ------------------------------------------------------------------
    # sharded burst execution
    # ------------------------------------------------------------------
    def supports_sharded_batches(self) -> bool:
        """Sharded bursts abort shard-wise, so subs must be atomic-capable."""
        return self.supports_atomic_batches()

    def apply_batch_sharded(
        self,
        requests: Batch | Iterable[Request],
        *,
        record: bool = True,
        semantics: str = "strict",
    ) -> BatchResult:
        """Apply a burst by handing each machine's sub-batch to a worker.

        Equivalent to ``apply_batch`` — placements, per-request costs,
        and max-span tracking come out identical to sequential
        processing — but driven shard-first: the burst is resolved with
        :meth:`plan_shard_execution`, each machine's op stream runs on
        its own worker, and the per-shard touched logs are then merged
        in global request order into the incrementally-maintained
        machine-tagged placement map, the balancer, and the cost ledger.

        Sharded bursts are always transactional: a failure on any shard
        aborts every shard's batch context and reports
        ``rolled_back=True`` with the earliest failing request's index,
        leaving the scheduler in its exact pre-burst state (the merge
        phase, which is the only thing that mutates delegator-level
        state, never ran).

        ``record=False`` suspends ledger recording, for wrapper layers
        (alignment) that re-cost the burst against their own view.

        ``semantics="flexible"`` runs the joint burst planner first
        (:meth:`~repro.core.base.ReallocatingScheduler._plan_flexible`):
        the *planned* request stream — coalesced deletes, then the
        reordered elision-free inserts — is what shards and merges, and
        per-request costs are mapped back to arrival positions (elided
        pairs as zero-cost entries) before recording, so callers see
        one cost per submitted request either way.
        """
        resolve_batch_semantics(semantics)
        batch = requests if isinstance(requests, Batch) else Batch(requests)
        if self._batch is not None:
            raise InvalidRequestError(
                "apply_batch_sharded cannot run inside an open batch")
        if not self.supports_sharded_batches():
            raise InvalidRequestError(
                f"{type(self).__name__} sub-schedulers do not support the "
                "atomic batch contexts sharded bursts abort through"
            )
        if semantics == "flexible":
            flex = self._plan_flexible(batch)
            if flex is not None:
                return self._sharded_flexible(batch, flex, record=record)
            # Protocol-invalid op streams degrade to strict application.
        return self._sharded_dispatch(batch, record=record)

    def _sharded_flexible(
        self,
        batch: Batch,
        flex: "tuple[list[tuple[int, DeleteJob]], list[tuple[int, InsertJob]], list[tuple[int, Request]]]",
        *,
        record: bool,
    ) -> BatchResult:
        """Shard a planned flexible burst and re-map costs to arrival order."""
        deletes, inserts, elided = flex
        planned = [*deletes, *inserts]
        order = [index for index, _ in planned]
        inner = self._sharded_dispatch(
            Batch([request for _, request in planned]), record=False)
        if inner.failed:
            failed_index = inner.failed_index
            if failed_index is not None:
                failed_index = order[failed_index]
            return BatchResult(
                costs=[], net=None, size=len(batch), atomic=True,
                failed=True, failed_index=failed_index,
                failure=inner.failure, rolled_back=True, error=inner.error,
            )
        by_index = {order[k]: inner.costs[k] for k in range(len(inner.costs))}
        for index, request in elided:
            by_index[index] = self._elided_cost(request)
        costs = [by_index[i] for i in range(len(batch))]
        if record:
            record_cost = self.ledger.record
            for cost in costs:
                record_cost(cost)
        return BatchResult(costs=costs, net=inner.net, size=len(batch),
                           atomic=True)

    def _sharded_dispatch(self, batch: Batch, *,
                          record: bool) -> BatchResult:
        """Run one (already validated) burst on serial shard workers."""
        try:
            plan = self.plan_shard_execution(batch)
        except ReproError as exc:
            return BatchResult(
                costs=[], net=None, size=len(batch), atomic=True,
                failed=True, failed_index=None,
                failure=f"{type(exc).__name__}: {exc}",
                rolled_back=True, error=exc,
            )
        workers = [ShardWorker(machine, self.machines[machine], ops)
                   for machine, ops in plan.per_machine.items() if ops]
        for worker in workers:
            worker.sub._batch_begin(atomic=True, top=False)
        try:
            for worker in workers:
                worker.run()
        except BaseException:
            # Unexpected (non-ReproError) failure: nothing has merged,
            # so an all-shard abort restores the pre-burst state exactly.
            for worker in workers:
                worker.sub._batch_abort()
            raise
        failures = [w.failure for w in workers if w.failure is not None]
        if failures:
            for worker in workers:
                worker.sub._batch_abort()
            failed_index, error = min(failures, key=_failure_index)
            return BatchResult(
                costs=[], net=None, size=len(batch), atomic=True,
                failed=True, failed_index=failed_index,
                failure=f"{type(error).__name__}: {error}",
                rolled_back=True, error=error,
            )
        try:
            costs, batch_touched = self._merge_shard_results(plan, record=record)
        finally:
            # Close the sub contexts even if the merge blows up: the
            # shards fully applied their streams, so committing them is
            # the consistent half (mirrors apply_batch's non-atomic
            # BaseException path); the exception still propagates.
            for worker in workers:
                worker.sub._batch_commit()
        net = diff_touched(
            batch_touched, self._placements,
            kind="batch", subject="batch",
            n_active=len(self.jobs), max_span=self._max_span_cache,
        )
        return BatchResult(costs=costs, net=net, size=len(batch), atomic=True)

    def _merge_shard_results(
        self, plan: ShardPlan, *, record: bool,
    ) -> tuple[list, dict[JobId, Placement | None]]:
        """Fold the workers' per-op touched logs into delegator state.

        Runs in global request order, so every first touch of a job
        reads the same pre-placement sequential execution would log, and
        each request's cost diff sees exactly the post-request map. This
        is :meth:`_sync_machine` deferred: sub-level placement changes
        are machine-tagged into the merged map, the balancer replays the
        planned mutations, and jobs / span tracking / the ledger advance
        per request just as the base class would.
        """
        placements = self._placements
        balancer = self.balancer
        record_cost = self.ledger.record
        batch_touched: dict[JobId, Placement | None] = {}
        costs = []
        for pr in plan.requests:
            req_touched: dict[JobId, Placement | None] = {}
            for op in pr.ops:
                machine = op.machine
                post = op.post
                for jid in op.changed:
                    if jid not in req_touched:
                        pre = placements.get(jid)
                        req_touched[jid] = pre
                        if jid not in batch_touched:
                            batch_touched[jid] = pre
                    pl = post[jid]
                    if pl is None:
                        placements.pop(jid, None)
                    else:
                        placements[jid] = Placement(machine, pl.slot)
            for bop in pr.balancer_ops:
                if bop[0] == "ins":
                    balancer.record_insert(bop[1], bop[2], bop[3])
                elif bop[0] == "del":
                    balancer.record_delete(bop[1])
                else:
                    balancer.record_migration(bop[1], bop[2])
            if pr.kind == "insert":
                self.jobs[pr.subject] = pr.job
                self._span_add(pr.job.span)
                n_active, max_span = len(self.jobs), self._max_span_cache
            else:
                job = self.jobs[pr.subject]
                n_active, max_span = len(self.jobs), self._max_span_cache
                del self.jobs[pr.subject]
                self._span_remove(job.span)
            cost = diff_touched(
                req_touched, placements,
                kind=pr.kind, subject=pr.subject,
                n_active=n_active, max_span=max_span,
            )
            if record:
                record_cost(cost)
            costs.append(cost)
        self.last_touched = None
        return costs, batch_touched

    def _batch_begin(self, *, atomic: bool, top: bool,
                     ephemeral: bool = False,
                     emit_touched: bool = True) -> None:
        super()._batch_begin(atomic=atomic, top=top, ephemeral=ephemeral,
                             emit_touched=emit_touched)
        if atomic and not ephemeral:
            self.balancer.begin_txn()
        for sub in self.machines:
            sub._batch_begin(atomic=atomic, top=False, ephemeral=ephemeral)

    def _batch_commit(self) -> None:
        super()._batch_commit()
        self._batch_plan = {}
        self.balancer.commit_txn()
        for sub in self.machines:
            sub._batch_commit()

    def _batch_restore(self, ctx: _BatchContext) -> None:
        self._batch_plan = {}
        for sub in self.machines:
            sub._batch_abort()
        self.balancer.abort_txn()
        self._restore_placement_map(self._placements, ctx.touched)

    def check_balance(self) -> None:
        self.balancer.check_balance()
