"""The paper's Theorem 1 scheduler, assembled end to end.

:class:`ReservationScheduler` composes the three constructions exactly
as the proof of Theorem 1 does:

1. **Align** (Section 5): each new job's window is replaced by
   ``ALIGNED(W)`` (losing a factor <= 4 of slack, Lemma 10);
2. **Delegate** (Section 3): the job is assigned to a machine by
   per-window round-robin (losing a factor 6, Lemma 3; at most one
   migration per request);
3. **Reserve** (Section 4): each machine runs single-machine
   pecking-order scheduling with reservations, with windows trimmed to
   ``2 * gamma * n*`` (Lemma 9: ``O(min{log* n, log* Delta})``
   reallocations per request).

Guarantee: for gamma-underallocated request sequences (gamma a
sufficiently large constant; the paper does not optimize it and neither
do we — experiment E9 measures the empirical threshold), every request
costs ``O(min{log* n, log* Delta})`` reallocations and at most one
migration.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Mapping

from ..alignment.align import align_job
from ..analysis.sanitize import resolve_journal
from ..levels.policy import LevelPolicy, PAPER_POLICY
from ..multimachine.delegation import DelegatingScheduler
from ..reservation.trimming import TrimmedReservationScheduler
from .base import ReallocatingScheduler, _BatchContext
from .costs import BatchResult, RequestCost
from .exceptions import InvalidRequestError
from .job import Job, JobId, Placement
from .requests import Batch, DeleteJob, InsertJob, Request
from .window import Window


class ReservationScheduler(ReallocatingScheduler):
    """Theorem 1: m-machine reallocating scheduler for unit jobs.

    Parameters
    ----------
    num_machines:
        Machine count m.
    gamma:
        Power-of-two slack constant used by the trimming layer.
    policy:
        Level decomposition policy (paper tower by default).
    trim:
        Disable to skip the n*-trimming layer (pure log* Delta bound);
        enabled by default, giving the min{log* n, log* Delta} bound.
    deamortized:
        Use the even/odd-slot incremental rebuild (Section 4, end):
        O(1) *worst-case* cost per request instead of O(1) amortized
        with Theta(n) rebuild spikes. Requires twice the slack
        (2*gamma-underallocated instances) and aligned spans >= 2, so
        original windows must have span >= 5 to survive ALIGNED().
    journal:
        Undo-journal representation of the per-machine reservation
        schedulers: ``"arena"`` (default — tuple-opcode entries on a
        reusable arena) or ``"arena-sanitize"`` (arena plus checking container proxies,
        the runtime journal-coverage oracle; also selected by
        ``REPRO_SANITIZE=1`` in the environment).

    Example
    -------
    >>> from repro import Job, Window
    >>> from repro.core.api import ReservationScheduler
    >>> sched = ReservationScheduler(num_machines=2)
    >>> cost = sched.insert(Job("patient-1", Window(3, 17)))
    >>> cost.reallocation_cost
    0
    >>> sched.placements["patient-1"].slot in Window(3, 17)
    True
    """

    _sparse_costing = True

    def __init__(
        self,
        num_machines: int = 1,
        *,
        gamma: int = 8,
        policy: LevelPolicy = PAPER_POLICY,
        trim: bool = True,
        deamortized: bool = False,
        journal: str = "arena",
    ) -> None:
        super().__init__(num_machines=num_machines)
        journal = resolve_journal(journal)
        self.gamma = gamma
        self.policy = policy
        self.journal_impl = journal
        if deamortized:
            from ..reservation.deamortized import DeamortizedReservationScheduler

            def factory() -> ReallocatingScheduler:
                return DeamortizedReservationScheduler(gamma=gamma, policy=policy,
                                                       journal=journal)
        elif trim:
            def factory() -> ReallocatingScheduler:
                return TrimmedReservationScheduler(gamma=gamma, policy=policy,
                                                   journal=journal)
        else:
            from ..reservation.scheduler import AlignedReservationScheduler

            def factory() -> ReallocatingScheduler:
                return AlignedReservationScheduler(policy, journal=journal)
        self.delegator = DelegatingScheduler(num_machines, factory)
        #: per-batch memo of pre-aligned insert jobs (id -> queue)
        self._align_memo: dict[JobId, deque[Job]] = {}

    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self.delegator.placements

    def _apply_insert(self, job: Job) -> None:
        memo = self._align_memo
        queue = memo.get(job.id) if memo else None
        eff = queue.popleft() if queue else align_job(job)
        self.delegator.insert(eff)
        self._merge_touched(self.delegator.last_touched)

    def _apply_delete(self, job: Job) -> None:
        self.delegator.delete(job.id)
        self._merge_touched(self.delegator.last_touched)

    # ------------------------------------------------------------------
    # batch lifecycle
    # ------------------------------------------------------------------
    #: placements pass through the delegator, whose own abort restores
    #: them — no batch touched log needed at this layer (unless top,
    #: where the batch net diff still requires one)
    _batch_restore_needs_touched = False

    def supports_atomic_batches(self) -> bool:
        return self.delegator.supports_atomic_batches()

    def _flexible_insert_order_key(self) -> "Callable[[Job], Any] | None":
        """The whole stack agrees on the delegation layer's order."""
        return self.delegator._flexible_insert_order_key()

    def _flexible_size_hint(self, deletes: list[DeleteJob],
                            inserts: list[Job]) -> None:
        """Pass the planned net size change down to the delegation."""
        self.delegator._flexible_size_hint(deletes, inserts)

    def _batch_prepare(self, inserts: list[Job], *,
                       flexible: bool = False) -> None:
        """Align the batch's windows once and plan the delegation.

        Alignment is a total pure function of the job, so precomputing
        it for the whole burst is free of semantic risk; the aligned
        jobs are what the delegator grouping must key on. Per-id queues
        keep repeated ids (insert, delete, insert again) paired with
        the right insert, since the batch consumes them in order.

        A flexible batch's insert phase is elision-free and runs after
        the coalesced deletes, so ``ALIGNED(W)`` is additionally
        memoized per *distinct window* — one alignment computation per
        touched window instead of per request (burst arrivals reuse a
        focus window heavily).
        """
        memo: dict[JobId, deque[Job]] = {}
        aligned: list[Job] = []
        if flexible:
            window_memo: dict[Window, Window] = {}
            for job in inserts:
                win = window_memo.get(job.window)
                if win is None:
                    win = job.window.aligned_within()
                    window_memo[job.window] = win
                eff = job.with_window(win)
                memo.setdefault(job.id, deque()).append(eff)
                aligned.append(eff)
        else:
            for job in inserts:
                eff = align_job(job)
                memo.setdefault(job.id, deque()).append(eff)
                aligned.append(eff)
        self._align_memo = memo
        self.delegator._batch_prepare(aligned, flexible=flexible)

    def _batch_begin(self, *, atomic: bool, top: bool,
                     ephemeral: bool = False,
                     emit_touched: bool = True) -> None:
        super()._batch_begin(atomic=atomic, top=top, ephemeral=ephemeral,
                             emit_touched=emit_touched)
        self.delegator._batch_begin(atomic=atomic, top=False,
                                    ephemeral=ephemeral)

    def _batch_commit(self) -> None:
        super()._batch_commit()
        self._align_memo = {}
        self.delegator._batch_commit()

    def _batch_restore(self, ctx: _BatchContext) -> None:
        self._align_memo = {}
        self.delegator._batch_abort()

    # ------------------------------------------------------------------
    # sharded bursts
    # ------------------------------------------------------------------
    def supports_sharded_batches(self) -> bool:
        return self.delegator.supports_sharded_batches()

    def apply_batch_sharded(
        self,
        requests: Batch | Iterable[Request],
        *,
        semantics: str = "strict",
    ) -> BatchResult:
        """Drive a burst shard-first through the delegation layer.

        The alignment step is a pure per-job function, so the whole
        burst is pre-aligned here and handed to
        :meth:`~repro.multimachine.delegation.DelegatingScheduler.
        apply_batch_sharded`; this layer then re-costs each
        request against its own view (original jobs, hence original —
        not aligned — max spans) exactly as sequential processing would,
        keeping ledger entries bit-identical to ``apply``/``apply_batch``.
        ``semantics="flexible"`` plans the aligned burst jointly inside
        the delegation layer; the costs still come back one per request
        at arrival positions (elided pairs as zero-cost entries), so
        the re-costing zip below is semantics-agnostic.
        """
        batch = requests if isinstance(requests, Batch) else Batch(requests)
        if self._batch is not None:
            raise InvalidRequestError(
                "apply_batch_sharded cannot run inside an open batch")
        aligned = Batch([
            InsertJob(align_job(r.job)) if isinstance(r, InsertJob) else r
            for r in batch
        ])
        inner = self.delegator.apply_batch_sharded(
            aligned, record=False, semantics=semantics)
        if inner.failed:
            return BatchResult(
                costs=[], net=None, size=len(batch), atomic=True,
                failed=True, failed_index=inner.failed_index,
                failure=inner.failure, rolled_back=True, error=inner.error,
            )
        costs = []
        record = self.ledger.record
        for request, inner_cost in zip(batch, inner.costs):
            if isinstance(request, InsertJob):
                job = request.job
                self.jobs[job.id] = job
                self._span_add(job.span)
                n_active, max_span = len(self.jobs), self._max_span_cache
            else:
                job = self.jobs[request.job_id]
                n_active, max_span = len(self.jobs), self._max_span_cache
                del self.jobs[request.job_id]
                self._span_remove(job.span)
            cost = RequestCost(
                kind=inner_cost.kind, subject=inner_cost.subject,
                rescheduled=inner_cost.rescheduled,
                migrated=inner_cost.migrated,
                n_active=n_active, max_span=max_span,
            )
            record(cost)
            costs.append(cost)
        net = inner.net
        if net is not None:
            net = RequestCost(
                kind=net.kind, subject=net.subject,
                rescheduled=net.rescheduled, migrated=net.migrated,
                n_active=len(self.jobs), max_span=self._max_span_cache,
            )
        self.last_touched = None
        return BatchResult(costs=costs, net=net, size=len(batch), atomic=True)

    # ------------------------------------------------------------------
    def check_balance(self) -> None:
        """Assert the Section 3 per-window balance invariant."""
        self.delegator.check_balance()

    def machine_schedulers(self) -> list[ReallocatingScheduler]:
        """The per-machine single-machine schedulers (diagnostics)."""
        return list(self.delegator.machines)
