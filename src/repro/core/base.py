"""The reallocating-scheduler interface: per-request and batch-first.

Every scheduler in this library — the paper's reservation scheduler, the
naive pecking-order scheduler, EDF/LLF rebuilds, the per-request-optimal
matcher — implements :class:`ReallocatingScheduler`. The base class
standardizes cost measurement: subclasses implement ``_apply_insert`` /
``_apply_delete`` mutating their internal placement map, and the base
class diffs placements around each request to produce a
:class:`~repro.core.costs.RequestCost`. That keeps cost accounting
uniform and scheduler-independent, exactly as the paper's job-centered
cost model demands.

Two costing modes exist. The default snapshots the whole placement map
before each request and diffs after — O(n) per request, correct for any
subclass. Schedulers on the fast path set ``_sparse_costing = True`` and
call :meth:`_log_touch` before every placement mutation; the base class
then diffs only the touched jobs (:func:`~repro.core.costs.diff_touched`),
making cost accounting O(reallocations) per request — the paper's
O(log* n) — instead of O(n). The largest active span (the paper's
``Delta_i``) is likewise tracked incrementally instead of rescanned.

Batch contract
--------------
Real traffic arrives in bursts, so the public API is batch-first:
:meth:`ReallocatingScheduler.apply_batch` applies a whole
:class:`~repro.core.requests.Batch` under ONE batch context. Under the
default ``semantics="strict"`` requests are applied strictly in order
and every per-request :class:`RequestCost` is measured and recorded
exactly as sequential ``apply`` would — a committed batch leaves
placements, ledger totals, and max-span tracking bit-identical to
processing the same requests one at a time (the batch-equivalence
property, enforced by the test suite).
What the batch amortizes is bookkeeping, not semantics:

- one touched-placement log spans the burst, finalizing a single sparse
  net cost diff (:attr:`~repro.core.costs.BatchResult.net`) alongside
  the per-request breakdown;
- layers below the batch entry point suspend their own per-request cost
  finalization (diff + ledger record) — wrappers consume the raw
  touched logs instead;
- with ``atomic=True``, rollback switches from the per-request undo
  journal to batch-scoped snapshot-on-first-touch: a mid-batch failure
  restores the exact pre-batch state (all-or-nothing), and successful
  batches skip the per-mutation journal entirely.

Failure semantics: non-atomic batches stop at the first failing
request, roll that request back (per-request journal, as sequential
``apply`` does), and report the committed prefix; atomic batches roll
the whole burst back and leave the scheduler usable, as if the batch
had never been submitted. ``apply_batch`` never raises for scheduler
failures (:class:`~repro.core.exceptions.ReproError`) — it reports them
in the :class:`~repro.core.costs.BatchResult` so drivers can decide.

Flexible semantics
------------------
``apply_batch(..., semantics="flexible")`` relaxes the bit-identical
pin to a *bounds-equivalence* contract: the committed job table,
max-span tracking, and feasibility are identical to strict processing,
every per-request measured cost stays within the Theorem 1 bound
(strict mode is the bounded oracle), but placements and individual
ledger entries are free. The planner (:meth:`_plan_flexible`) exploits
that freedom without bypassing the per-request cost model:

- interior insert/delete pairs born and retired inside the burst are
  *elided* — neither touches the schedule; both still get (zero-cost)
  ledger entries so the ledger stays one entry per request;
- deletes of pre-existing jobs are coalesced up front (arrival order),
  so :meth:`_batch_prepare` plans the surviving inserts against the
  post-delete state — one target computation per touched window;
- surviving inserts run jointly, ordered by the stack's
  :meth:`_flexible_insert_order_key` (span-ascending for the
  reservation stacks, mirroring the trimming rebuild order), which
  avoids intra-burst displacement/move chains.

Every planned operation still executes through :meth:`insert` /
:meth:`delete` under the normal batch context, so atomic rollback, the
undo arena, sanitizer first-touch accounting, and the journal-coverage
contracts apply to flexible batches unchanged — a reordered valid
sequence is still a valid sequence, so Theorem 1's per-request bound
holds for every planned op. Per-request ledger entries are re-ordered
back to arrival positions at commit. A batch whose per-id op streams
are not protocol-valid against the pre-batch job set (duplicate
inserts, deletes of absent jobs) degrades to strict application, which
reports the error at its arrival position.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Iterable, Mapping

from .costs import BatchResult, CostLedger, RequestCost, diff_placements, diff_touched
from .exceptions import InvalidRequestError, ReproError
from .job import Job, JobId, Placement
from .requests import Batch, DeleteJob, InsertJob, Request

#: batch placement semantics — ``"strict"`` pins placements/ledger to
#: sequential equivalence; ``"flexible"`` keeps only the
#: bounds-equivalence contract (see the module docstring). Imported by
#: the session backends and the CLI's argparse choices.
BATCH_SEMANTICS = ("strict", "flexible")


def resolve_batch_semantics(semantics: str) -> str:
    """Validate a batch-semantics selector (single definition point)."""
    if semantics not in BATCH_SEMANTICS:
        raise InvalidRequestError(
            f"semantics must be one of {BATCH_SEMANTICS}, got {semantics!r}")
    return semantics


class _BatchContext:
    """Per-batch bookkeeping held by a scheduler while a batch is open.

    ``touched`` is the batch-level first-touch placement log (pre-batch
    values), kept when the layer needs a net diff (batch entry point) or
    a placement restore (atomic). ``inserted``/``deleted`` record the
    batch's net job churn for atomic rollback. ``saved`` is free-form
    storage for subclass snapshots (inner-scheduler refs, balancer
    transaction logs, structure snapshots).
    """

    __slots__ = ("atomic", "top", "touched", "before", "inserted", "deleted",
                 "ledger_len", "saved", "ephemeral", "emit_touched")

    def __init__(self, *, atomic: bool, top: bool, sparse: bool,
                 placements: Mapping[JobId, Placement], ledger_len: int,
                 ephemeral: bool = False, emit_touched: bool = True,
                 needs_touched: bool = True) -> None:
        self.atomic = atomic
        self.top = top
        self.ephemeral = ephemeral
        self.emit_touched = emit_touched or top
        track = atomic and not ephemeral
        self.touched: dict[JobId, Placement | None] | None = (
            {} if sparse and (top or (track and needs_touched)) else None)
        self.before: dict[JobId, Placement] | None = (
            dict(placements) if (top and not sparse) else None)
        self.inserted: dict[JobId, Job] | None = {} if track else None
        self.deleted: dict[JobId, Job] | None = {} if track else None
        self.ledger_len = ledger_len
        self.saved: dict = {}

    def merge_touched(
        self, touched: Mapping[JobId, Placement | None] | None
    ) -> None:
        bt = self.touched
        if bt is None or not touched:
            return
        for job_id, old in touched.items():
            if job_id not in bt:
                bt[job_id] = old

    def note_insert(self, job: Job) -> None:
        if self.inserted is not None:
            self.inserted[job.id] = job

    def note_delete(self, job: Job) -> None:
        if self.deleted is None:
            return
        # A job inserted by this batch and deleted again is net-zero.
        if job.id in self.inserted:
            del self.inserted[job.id]
        else:
            self.deleted[job.id] = job


class ReallocatingScheduler(abc.ABC):
    """Base class for online schedulers that maintain a feasible schedule.

    Parameters
    ----------
    num_machines:
        Number of identical machines ``m``.

    Subclass contract
    -----------------
    - ``_apply_insert(job)`` must place ``job`` (and may move others).
    - ``_apply_delete(job)`` must unplace ``job`` (and may move others).
    - ``placements`` must always reflect the live schedule.
    - Sparse-costing subclasses (``_sparse_costing = True``) must call
      :meth:`_log_touch` (or :meth:`_merge_touched`) before mutating any
      job's placement, including wrapped sub-schedulers' moves.
    - Batch-aware wrappers override :meth:`_batch_begin` /
      :meth:`_batch_commit` / :meth:`_batch_restore` to propagate the
      batch context to inner schedulers, and
      :meth:`supports_atomic_batches` when the whole stack can restore
      its exact pre-batch state on abort.

    Subclasses must raise :class:`InfeasibleError` /
    :class:`UnderallocationError` *before* corrupting state, or restore
    state on failure, so callers can fall back to another scheduler.
    """

    #: subclasses that log touched placements (pre-request values) set
    #: this True to get O(reallocations) instead of O(n) cost diffing.
    _sparse_costing = False

    def __init__(self, num_machines: int = 1) -> None:
        if num_machines < 1:
            raise ValueError("num_machines must be >= 1")
        self.num_machines = num_machines
        self.jobs: dict[JobId, Job] = {}
        self.ledger = CostLedger()
        #: live touched-placement log (active only inside a request)
        self._touched: dict[JobId, Placement | None] | None = None
        #: touched log of the most recent completed request (sparse mode
        #: only) — wrappers fold it into their own log via _merge_touched
        self.last_touched: dict[JobId, Placement | None] | None = None
        #: spare touched dict recycled between requests (two-slot ring
        #: with ``last_touched``): consumers read ``last_touched``
        #: synchronously — before the next request on this scheduler —
        #: so the dict from two requests ago is free for reuse. Saves
        #: one dict allocation per request at every layer of a stack.
        self._touched_spare: dict[JobId, Placement | None] | None = None
        #: span -> active-job count, for O(1) amortized max-span tracking
        self._span_counts: dict[int, int] = {}
        self._max_span_cache = 1
        #: open batch context (None outside apply_batch)
        self._batch: _BatchContext | None = None

    # ------------------------------------------------------------------
    # subclass API
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def placements(self) -> Mapping[JobId, Placement]:
        """Live placement map (job id -> machine, slot)."""

    @abc.abstractmethod
    def _apply_insert(self, job: Job) -> None:
        """Place ``job`` into the schedule, moving others if necessary."""

    @abc.abstractmethod
    def _apply_delete(self, job: Job) -> None:
        """Remove ``job`` from the schedule, moving others if desired."""

    # ------------------------------------------------------------------
    # sparse costing support
    # ------------------------------------------------------------------
    def _log_touch(self, job_id: JobId) -> None:
        """Record ``job_id``'s pre-request placement (first touch wins)."""
        t = self._touched
        if t is not None and job_id not in t:
            t[job_id] = self.placements.get(job_id)

    def _merge_touched(
        self, touched: Mapping[JobId, Placement | None] | None
    ) -> None:
        """Fold a wrapped scheduler's touched log into this request's.

        Only valid when the wrapper's placements are coordinate-identical
        to the wrapped scheduler's (pass-through properties).
        """
        t = self._touched
        if t is None or touched is None:
            return
        if not t:
            t.update(touched)
            return
        for job_id, old in touched.items():
            if job_id not in t:
                t[job_id] = old

    def _touched_acquire(self) -> dict[JobId, Placement | None]:
        """An empty touched dict for the starting request (ring reuse)."""
        spare = self._touched_spare
        if spare is None:
            return {}
        self._touched_spare = None
        return spare

    def _touched_publish(
        self, touched: dict[JobId, Placement | None] | None
    ) -> None:
        """Expose ``touched`` as ``last_touched``, recycling the old one.

        The previous ``last_touched`` was consumed by every parent
        before this request began (the synchronous-merge contract), so
        it can be cleared and parked as the next request's dict.
        """
        prev = self.last_touched
        self.last_touched = touched
        if prev is not None and prev is not touched:
            prev.clear()
            self._touched_spare = prev

    def _touched_recycle(
        self, touched: dict[JobId, Placement | None] | None
    ) -> None:
        """Park a touched dict that will not be published (failure path)."""
        if touched is not None and self._touched_spare is None:
            touched.clear()
            self._touched_spare = touched

    # ------------------------------------------------------------------
    # public online interface
    # ------------------------------------------------------------------
    def insert(self, job: Job) -> RequestCost | None:
        """Process an INSERTJOB request and return its measured cost.

        Inside a batch, layers below the batch entry point suspend cost
        finalization and return None — parents read ``last_touched``.
        """
        if job.id in self.jobs:
            raise InvalidRequestError(f"job {job.id!r} already active")
        ctx = self._batch
        sparse = self._sparse_costing
        costed = ctx is None or ctx.top or not sparse
        before = dict(self.placements) if (costed and not sparse) else None
        if sparse and (ctx is None or ctx.emit_touched):
            self._touched = self._touched_acquire()
        self.jobs[job.id] = job
        try:
            self._apply_insert(job)
        except Exception:
            self.jobs.pop(job.id, None)
            touched, self._touched = self._touched, None
            if ctx is not None and ctx.atomic and touched:
                ctx.merge_touched(touched)  # the abort must see these
            self._touched_recycle(touched)
            raise
        self._span_add(job.span)
        if ctx is not None:
            ctx.note_insert(job)
        if sparse:
            touched, self._touched = self._touched, None
            self._touched_publish(touched)
            if ctx is not None:
                ctx.merge_touched(touched)
            if not costed:
                return None
            cost = diff_touched(
                touched, self.placements,
                kind="insert", subject=job.id,
                n_active=len(self.jobs), max_span=self._max_span_cache,
            )
        else:
            self.last_touched = None
            cost = diff_placements(
                before, self.placements,
                kind="insert", subject=job.id,
                n_active=len(self.jobs), max_span=self._max_span_cache,
            )
        self.ledger.record(cost)
        return cost

    def delete(self, job_id: JobId) -> RequestCost | None:
        """Process a DELETEJOB request and return its measured cost.

        Inside a batch, layers below the batch entry point suspend cost
        finalization and return None — parents read ``last_touched``.
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise InvalidRequestError(f"job {job_id!r} not active")
        n_active = len(self.jobs)
        max_span = self._max_span_cache
        ctx = self._batch
        sparse = self._sparse_costing
        costed = ctx is None or ctx.top or not sparse
        before = dict(self.placements) if (costed and not sparse) else None
        if sparse and (ctx is None or ctx.emit_touched):
            self._touched = self._touched_acquire()
        try:
            self._apply_delete(job)
        except Exception:
            touched, self._touched = self._touched, None
            if ctx is not None and ctx.atomic and touched:
                ctx.merge_touched(touched)
            self._touched_recycle(touched)
            raise
        del self.jobs[job_id]
        self._span_remove(job.span)
        if ctx is not None:
            ctx.note_delete(job)
        if sparse:
            touched, self._touched = self._touched, None
            self._touched_publish(touched)
            if ctx is not None:
                ctx.merge_touched(touched)
            if not costed:
                return None
            cost = diff_touched(
                touched, self.placements,
                kind="delete", subject=job_id,
                n_active=n_active, max_span=max_span,
            )
        else:
            self.last_touched = None
            cost = diff_placements(
                before, self.placements,
                kind="delete", subject=job_id,
                n_active=n_active, max_span=max_span,
            )
        self.ledger.record(cost)
        return cost

    def apply(self, request: Request) -> RequestCost:
        """Dispatch a request object (insert or delete)."""
        if isinstance(request, InsertJob):
            return self.insert(request.job)
        if isinstance(request, DeleteJob):
            return self.delete(request.job_id)
        raise InvalidRequestError(f"unknown request: {request!r}")

    def apply_batch(
        self,
        requests: Batch | Iterable[Request],
        *,
        atomic: bool = False,
        semantics: str = "strict",
    ) -> BatchResult:
        """Apply a burst of requests under one batch context.

        Under ``semantics="strict"`` requests are applied strictly in
        order; per-request costs enter the ledger exactly as sequential
        :meth:`apply` would, and one batch-level net diff is finalized
        at commit. ``semantics="flexible"`` plans the burst jointly
        (deletes coalesced first, interior insert/delete pairs elided,
        surviving inserts reordered) under the bounds-equivalence
        contract. See the module docstring for both contracts.

        Parameters
        ----------
        atomic:
            All-or-nothing: a mid-batch failure restores the exact
            pre-batch state and leaves the scheduler usable. Requires
            :meth:`supports_atomic_batches`. Without it, a failure
            commits the preceding requests and rolls back only the
            failing one (sequential semantics).
        semantics:
            ``"strict"`` (default) or ``"flexible"``.
        """
        batch = requests if isinstance(requests, Batch) else Batch(requests)
        resolve_batch_semantics(semantics)
        if self._batch is not None:
            raise InvalidRequestError("apply_batch cannot be nested")
        if atomic and not self.supports_atomic_batches():
            raise InvalidRequestError(
                f"{type(self).__name__} does not support atomic batches"
            )
        if semantics == "flexible":
            plan = self._plan_flexible(batch)
            if plan is not None:
                deletes, inserts, elided = plan
                return self._apply_batch_flexible(
                    batch, atomic=atomic, deletes=deletes,
                    inserts=inserts, elided=elided,
                )
            # Protocol-invalid op streams degrade to strict application,
            # which reports the error at its arrival position.
        self._batch_begin(atomic=atomic, top=True)
        costs: list[RequestCost] = []
        error: ReproError | None = None
        failed_index: int | None = None
        try:
            self._batch_prepare(batch.insert_jobs)
            for i, request in enumerate(batch):
                try:
                    if isinstance(request, InsertJob):
                        costs.append(self.insert(request.job))
                    else:
                        costs.append(self.delete(request.job_id))
                except ReproError as exc:
                    error, failed_index = exc, i
                    break
        except BaseException:
            # Unexpected failure: restore what we can, then propagate.
            if atomic:
                self._batch_abort()
            else:
                self._batch_commit()
            raise
        if error is not None and atomic:
            self._batch_abort()
            return BatchResult(
                costs=costs, net=None, size=len(batch), atomic=True,
                failed=True, failed_index=failed_index,
                failure=f"{type(error).__name__}: {error}",
                rolled_back=True, error=error,
            )
        # Net diff over whatever committed — on a non-atomic failure the
        # touched log covers exactly the committed prefix (the failing
        # request was rolled back before its touches merged).
        ctx = self._batch
        if self._sparse_costing:
            net = diff_touched(
                ctx.touched, self.placements,
                kind="batch", subject="batch",
                n_active=len(self.jobs), max_span=self._max_span_cache,
            )
        else:
            net = diff_placements(
                ctx.before, self.placements,
                kind="batch", subject="batch",
                n_active=len(self.jobs), max_span=self._max_span_cache,
            )
        self._batch_commit()
        return BatchResult(
            costs=costs, net=net, size=len(batch), atomic=atomic,
            failed=error is not None, failed_index=failed_index,
            failure=(None if error is None
                     else f"{type(error).__name__}: {error}"),
            error=error,
        )

    # ------------------------------------------------------------------
    # flexible semantics (joint burst planning)
    # ------------------------------------------------------------------
    def _flexible_insert_order_key(self) -> "Callable[[Job], Any] | None":
        """Sort key over :class:`Job` for the flexible insert phase.

        None (the default) keeps arrival order. Reservation stacks
        return a span-ascending key — the same order the trimming
        rebuild uses — so a joint burst places small-span jobs before
        the large-span jobs that could displace them, avoiding
        intra-burst move chains. Wrappers delegate to their inner
        scheduler so the whole stack agrees on one order.
        """
        return None

    def _plan_flexible(
        self, batch: Batch
    ) -> "tuple[list[tuple[int, DeleteJob]], list[tuple[int, InsertJob]], list[tuple[int, Request]]] | None":
        """Joint plan for a flexible batch, or None to degrade to strict.

        Folds the batch into per-id op streams against the pre-batch job
        set. Interior insert/delete pairs (a job born and retired inside
        the burst) are elided; what survives is at most one leading
        delete of a pre-existing job and at most one trailing insert per
        id. Returns ``(deletes, inserts, elided)`` — each a list of
        ``(arrival_index, request)`` pairs; deletes keep arrival order,
        inserts are reordered by :meth:`_flexible_insert_order_key`.
        Returns None when any stream is protocol-invalid (duplicate
        insert, delete of an absent id), so the strict path can surface
        the error exactly as sequential processing would.
        """
        active = self.jobs
        #: id -> live within the planned timeline (absent = pre-batch state)
        state: dict[JobId, bool] = {}
        #: batch-born live inserts, by id (insertion-ordered)
        pending: dict[JobId, tuple[int, InsertJob]] = {}
        deletes: list[tuple[int, DeleteJob]] = []
        elided: list[tuple[int, Request]] = []
        for index, request in enumerate(batch):
            if isinstance(request, InsertJob):
                job_id = request.job.id
                if state.get(job_id, job_id in active):
                    return None  # insert of an already-active id
                state[job_id] = True
                pending[job_id] = (index, request)
            elif isinstance(request, DeleteJob):
                job_id = request.job_id
                if not state.get(job_id, job_id in active):
                    return None  # delete of an inactive id
                state[job_id] = False
                born = pending.pop(job_id, None)
                if born is not None:
                    elided.append(born)
                    elided.append((index, request))
                else:
                    deletes.append((index, request))
            else:
                return None  # unknown request kind: strict reports it
        inserts = sorted(pending.values())
        key = self._flexible_insert_order_key()
        if key is not None:
            # decorate-sort-undecorate: the key tuples compare directly,
            # with the arrival index as a deterministic tiebreak
            decorated = [(key(request.job), index, request)
                         for index, request in inserts]
            decorated.sort()
            inserts = [(index, request) for _, index, request in decorated]
        return deletes, inserts, elided

    def _elided_cost(self, request: Request) -> RequestCost:
        """Zero-cost ledger entry for an elided insert/delete pair.

        The pair never touched the schedule, so nothing was rescheduled
        or migrated; ``n_active``/``max_span`` carry the post-batch
        values (the entry does not correspond to a schedule state of its
        own).
        """
        if isinstance(request, InsertJob):
            kind, subject = "insert", request.job.id
        else:
            kind, subject = "delete", request.job_id
        return RequestCost(
            kind=kind, subject=subject,
            rescheduled=frozenset(), migrated=frozenset(),
            n_active=len(self.jobs), max_span=self._max_span_cache,
        )

    def _apply_batch_flexible(
        self,
        batch: Batch,
        *,
        atomic: bool,
        deletes: list[tuple[int, DeleteJob]],
        inserts: list[tuple[int, InsertJob]],
        elided: list[tuple[int, Request]],
    ) -> BatchResult:
        """Drive a planned flexible batch (deletes, then joint inserts).

        Every planned op runs through the normal :meth:`insert` /
        :meth:`delete` request path under the batch context, so rollback
        and cost accounting are untouched; :meth:`_batch_prepare` runs
        *between* the phases, planning the surviving inserts against the
        post-delete state. At commit the batch's ledger slice is
        permuted back to arrival order and elided requests receive
        zero-cost entries, keeping the ledger one-entry-per-request.
        """
        self._batch_begin(atomic=atomic, top=True)
        self._flexible_size_hint([request for _, request in deletes],
                                 [request.job for _, request in inserts])
        applied: list[RequestCost] = []
        planned: list[tuple[int, Request]] = [*deletes, *inserts]
        error: ReproError | None = None
        failed_index: int | None = None
        try:
            for index, request in deletes:
                try:
                    applied.append(self.delete(request.job_id))
                except ReproError as exc:
                    error, failed_index = exc, index
                    break
            if error is None:
                self._batch_prepare([item[1].job for item in inserts],
                                    flexible=True)
                for index, insert_request in inserts:
                    try:
                        applied.append(self.insert(insert_request.job))
                    except ReproError as exc:
                        error, failed_index = exc, index
                        break
        except BaseException:
            # Unexpected failure: restore what we can, then propagate.
            if atomic:
                self._batch_abort()
            else:
                self._batch_commit()
            raise
        if error is not None and atomic:
            self._batch_abort()
            return BatchResult(
                costs=applied, net=None, size=len(batch), atomic=True,
                failed=True, failed_index=failed_index,
                failure=f"{type(error).__name__}: {error}",
                rolled_back=True, error=error,
            )
        ctx = self._batch
        # Per-request ledger entries return to arrival order; elided
        # net-zero pairs commit as explicit zero-cost entries. On a
        # non-atomic failure only the applied planned prefix (plus the
        # no-op elided pairs) committed — failed_index names the failing
        # request's arrival position.
        by_index: dict[int, RequestCost] = {
            planned[k][0]: applied[k] for k in range(len(applied))
        }
        for index, request in elided:
            by_index[index] = self._elided_cost(request)
        costs = [by_index[i] for i in sorted(by_index)]
        self.ledger.entries[ctx.ledger_len:] = costs
        if self._sparse_costing:
            net = diff_touched(
                ctx.touched, self.placements,
                kind="batch", subject="batch",
                n_active=len(self.jobs), max_span=self._max_span_cache,
            )
        else:
            net = diff_placements(
                ctx.before, self.placements,
                kind="batch", subject="batch",
                n_active=len(self.jobs), max_span=self._max_span_cache,
            )
        self._batch_commit()
        return BatchResult(
            costs=costs, net=net, size=len(batch), atomic=atomic,
            failed=error is not None, failed_index=failed_index,
            failure=(None if error is None
                     else f"{type(error).__name__}: {error}"),
            error=error,
        )

    # ------------------------------------------------------------------
    # batch plumbing (overridden by wrapper schedulers)
    # ------------------------------------------------------------------
    def supports_atomic_batches(self) -> bool:
        """Whether this scheduler (stack) can restore pre-batch state."""
        return False

    # ------------------------------------------------------------------
    # sharded-drive hook points (overridden by delegating stacks)
    # ------------------------------------------------------------------
    def supports_sharded_batches(self) -> bool:
        """Whether bursts can be driven shard-first (per-machine workers).

        Schedulers that split work across per-machine sub-schedulers
        (the delegation layer and stacks wrapping it) override this
        together with :meth:`apply_batch_sharded`; the sharded drive
        backend in :mod:`repro.sim.session` keys off it.
        """
        return False

    def apply_batch_sharded(
        self,
        requests: Batch | Iterable[Request],
        *,
        semantics: str = "strict",
    ) -> BatchResult:
        """Apply a burst via per-shard workers (delegating stacks only).

        Semantics match :meth:`apply_batch` with ``atomic=True`` applied
        per burst: identical placements, ledger entries, and max-span
        tracking, with whole-burst rollback on any shard failure.
        ``semantics="flexible"`` plans the burst jointly first (the
        bounds-equivalence contract), with per-request costs reported
        at arrival positions exactly as :meth:`apply_batch` does.
        """
        raise InvalidRequestError(
            f"{type(self).__name__} does not support sharded batches"
        )

    def _batch_prepare(self, inserts: list[Job], *,
                       flexible: bool = False) -> None:
        """Hook: plan the batch from its insert jobs (grouping, memos).

        ``flexible=True`` marks a flexible batch's insert phase: the
        hook runs *after* the coalesced deletes, ``inserts`` is the
        planner's (reordered, elision-free) insert list, and the
        inserts will be applied in exactly this order with no
        intervening deletes — so plans may key off live post-delete
        state and may memoize per touched window.
        """

    def _flexible_size_hint(self, deletes: list[DeleteJob],
                            inserts: list[Job]) -> None:
        """Hook: announce a flexible batch's planned net size change.

        Called once per flexible batch, right after the batch context
        opens (so any state it changes is covered by the atomic
        snapshot) and before the coalesced deletes run. Size-adaptive
        layers (n*-trimming) may pre-size for the planned final job
        count instead of rebuilding at every mid-batch threshold
        crossing; placements are free under the flexible contract, so
        the skipped rebuilds only change them, never the job table,
        max-span, or feasibility.
        """

    #: pass-through wrappers whose placements restore entirely through a
    #: child's abort set this False to skip batch touched-log upkeep
    _batch_restore_needs_touched = True

    def _batch_begin(self, *, atomic: bool, top: bool,
                     ephemeral: bool = False,
                     emit_touched: bool = True) -> None:
        """Open a batch context. Wrappers extend this to snapshot their
        own state and begin their children with ``top=False``.

        ``ephemeral`` marks a scheduler *created inside* an open atomic
        batch (e.g. a trimming rebuild's fresh inner): an abort discards
        the object wholesale, so it skips rollback tracking entirely —
        no journal, no snapshots — and runs at full batch speed.
        ``emit_touched=False`` additionally suspends per-request touched
        logs, for children whose parent never reads ``last_touched``
        during the batch (rebuild inners log survivors wholesale).
        """
        self._batch = _BatchContext(
            atomic=atomic, top=top, sparse=self._sparse_costing,
            placements=self.placements, ledger_len=len(self.ledger.entries),
            ephemeral=ephemeral, emit_touched=emit_touched,
            needs_touched=self._batch_restore_needs_touched,
        )

    def _batch_commit(self) -> None:
        """Close the batch context, keeping all applied requests.
        Wrappers extend this to commit their (current) children."""
        self._batch = None

    def _batch_abort(self) -> None:
        """Restore the exact pre-batch state (atomic batches only).

        Base-class state (jobs, span tracking, ledger) is restored here;
        :meth:`_batch_restore` then restores subclass structures — it
        runs *after* the job set is back, so hooks may derive state from
        ``self.jobs``.
        """
        ctx = self._batch
        self._batch = None
        if ctx is None or not ctx.atomic:  # pragma: no cover - defensive
            raise InvalidRequestError("no atomic batch to abort")
        for job in ctx.inserted.values():
            del self.jobs[job.id]
            self._span_remove(job.span)
        for job in ctx.deleted.values():
            self.jobs[job.id] = job
            self._span_add(job.span)
        del self.ledger.entries[ctx.ledger_len:]
        self.last_touched = None
        self._batch_restore(ctx)

    def _batch_restore(self, ctx: _BatchContext) -> None:
        """Hook: restore subclass structures from ``ctx`` on abort."""

    def _restore_placement_map(
        self,
        placements: dict[JobId, Placement],
        touched: Mapping[JobId, Placement | None],
    ) -> None:
        """Rewind a placement dict using a batch-level touched log.

        Every job whose placement changed during the batch appears in
        ``touched`` with its pre-batch placement (None = had none), so
        the rewind is O(touched jobs).
        """
        for job_id in touched:
            placements.pop(job_id, None)
        for job_id, old in touched.items():
            if old is not None:
                placements[job_id] = old

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _span_add(self, span: int) -> None:
        counts = self._span_counts
        counts[span] = counts.get(span, 0) + 1
        if span > self._max_span_cache:
            self._max_span_cache = span

    def _span_remove(self, span: int) -> None:
        counts = self._span_counts
        n = counts[span] - 1
        if n:
            counts[span] = n
        else:
            del counts[span]
            if span == self._max_span_cache:
                self._max_span_cache = max(counts, default=1)

    def _max_span(self) -> int:
        """Largest active span, recomputed from scratch.

        Kept as the validation oracle for the incremental
        ``_max_span_cache``; no cost-recording path uses it anymore.
        """
        return max((j.span for j in self.jobs.values()), default=1)

    @property
    def n_active(self) -> int:
        return len(self.jobs)

    def snapshot(self) -> dict[JobId, Placement]:
        """A copy of the current placements."""
        return dict(self.placements)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(m={self.num_machines}, "
                f"active={len(self.jobs)})")
