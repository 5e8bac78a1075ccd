"""Single-machine pecking-order scheduling with reservations (Section 4).

This is the paper's core contribution (Figure 1), implemented faithfully:

- Jobs are split by window span into a base level (spans <= L_1 = 32,
  handled by constant-cost naive pecking-order displacement) and
  reservation levels l >= 1 (spans in (L_l, L_{l+1}]).
- Each reservation level partitions time into L_l-slot *intervals*
  (:class:`~repro.reservation.interval.Interval`). Every enclosing
  window holds one standing baseline reservation per interval; a window
  with x jobs holds 2x additional reservations spread round-robin
  (Invariant 5, implemented as a pure function of x in
  ``window_state.rr_counts``).
- Intervals fulfill reservations shortest-window-first within their
  *allowance* (slots not occupied by lower-level jobs); the rest are
  waitlisted (Observation 7: the fulfilled multiset is a pure function
  of the demand and allowance — history independent by construction).
- PLACE puts a job on one of its window's fulfilled slots, displacing at
  most one higher-level job, whose reinsertion cascades strictly upward
  (Figure 1, lines 15-23). MOVE relocates a job whose backing slot was
  revoked, swapping the two slots' roles inside every ancestor interval
  so the net allowance change is zero and at most one higher-level job
  relocates (lines 10-14).

Pecking order means lower levels never consult higher-level state; they
see higher-level jobs only as displaceable squatters. Consequently each
request touches O(1) jobs per level and there are O(log* Delta) levels —
Lemma 9's bound.

Deviations from the paper's prose (documented per DESIGN.md):

- Where the paper says "any slot"/"any job", we use deterministic
  preferences: truly empty slots before slots under higher-level jobs,
  then lowest slot number; smallest adequate victim span. These only
  improve constants.
- Intervals materialize lazily (scanning current occupancy on
  creation), so no time horizon needs declaring up front.

Fast path: PLACE and MOVE consult per-window backed-slot indexes
(:class:`~repro.reservation.window_state.WindowState` ``backed_empty`` /
``backed_covered``, maintained on every assignment and occupancy change)
instead of scanning the window's slot range, intervals memoize their
fulfillment targets (see ``interval.py``), and cost accounting uses the
base class's sparse touched-placement log. Failed requests roll back: an
undo journal records the pre-state of every structure touched by a
request, and an :class:`UnderallocationError` / :class:`InfeasibleError`
replays it in reverse before poisoning, so a poisoned scheduler's state
still equals the state before the failing request (post-mortem
validation sees no phantom jobs).

Batched fast path: inside an *atomic* ``apply_batch`` the per-request
journal is replaced by batch-scoped rollback (:class:`_AtomicBatchLog`)
— one undo journal spans the burst's interval mutations, window states
and their tables are snapshotted once per batch on first touch, the
placement maps rewind from the batch-level touched log, and job levels
rebuild from spans on the (rare) abort. The per-request journal
setup/teardown and all placement-map journaling disappear entirely,
while a mid-batch failure still restores the exact pre-batch state.

Placement-map journal diet: the same touched-log rewind covers the
*per-request* journal too. ``_set_placement`` / ``_clear_placement``
are the only mutators of the three placement maps and always record
the touched job first, so whenever a live touched log exists the
failed-request rollback rewinds the maps from it
(:meth:`AlignedReservationScheduler._rollback`) and the journal skips
them entirely; when no touched log is live (``emit_touched=False``
rebuild inners, dense-costing subclasses), one combined ``OP_PLACE`` /
``OP_UNPLACE`` entry per mutation replaces the three per-map entries.

Journal representation (the allocation diet): undo entries are tuple
opcodes replayed by one dispatch loop, and both the per-request journal
and the atomic batch log live on a per-scheduler
:class:`~repro.reservation.journal.UndoArena` — reusable containers
truncated on scope exit, so steady-state request processing allocates
one tuple per recorded mutation and nothing else.

The scheduler requires *aligned* windows and sufficient underallocation
(Lemma 8 needs 8-underallocation); when slack runs out it raises
:class:`UnderallocationError` and poisons itself — wrap with the
trimming/alignment/multi-machine layers for the full Theorem 1
scheduler.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

from ..analysis.sanitize import install_sanitizer, resolve_journal
from ..core.base import ReallocatingScheduler, _BatchContext
from ..core.events import EventTracer, NullTracer
from ..core.exceptions import (
    InfeasibleError,
    InvalidRequestError,
    UnderallocationError,
)
from ..core.job import Job, JobId, Placement
from ..core.window import Window
from ..levels.policy import LevelPolicy, PAPER_POLICY
from .interval import Interval
from .journal import (
    OP_PLACE,
    OP_POP,
    OP_SET,
    OP_UNPLACE,
    OP_WINDOW_STATE,
    UndoArena,
    replay_entries,
)
from .window_state import WindowState, rr_diff

_MISSING = object()


def flexible_span_order(job: Job) -> tuple[int, int, str]:
    """Span-ascending joint insert order for flexible batches.

    The same ``(span, release, id)`` order the trimming rebuild uses:
    placing small-span jobs first means later (larger-span) inserts can
    only displace *upward* in the pecking order, so a joint burst never
    builds the insert-then-displace move chains an arrival-order burst
    can. Shared by every layer of the reservation stack via
    ``_flexible_insert_order_key`` so the whole stack agrees.
    """
    return (job.span, job.release, str(job.id))


class _AtomicBatchLog:
    """Batch-scoped rollback log for atomic batches.

    Inside an atomic batch the *per-request* undo journal is switched
    off. Intervals share ONE undo journal spanning the whole batch,
    attached on first touch — the per-request attach/detach cycle and
    the placement-map journaling disappear, which is where the batched
    fast path's journal amortization comes from. Window states and
    window-state tables are snapshotted once per batch on first touch
    (id-keyed dedup); placement maps rewind from the batch-level touched
    log. :meth:`AlignedReservationScheduler._batch_restore` replays the
    journal backwards and reinstates the snapshots on abort.

    The log borrows the owning scheduler's
    :class:`~repro.reservation.journal.UndoArena` containers instead of
    allocating fresh ones — worker-resident schedulers open one atomic
    context per burst, so the same storage serves every burst of a
    worker's lifetime. Ephemeral (discard-on-abort) schedulers record
    nothing.
    """

    __slots__ = ("seen", "journal", "journal_ivs", "windows", "dicts",
                 "created", "track")

    def __init__(self, arena: UndoArena, *, track: bool = True) -> None:
        #: False for ephemeral (discard-on-abort) schedulers: the
        #: journal stays off and nothing is recorded either
        self.track = track
        self.seen = arena.seen
        #: batch-wide undo journal shared by every touched interval
        self.journal = arena.entries
        #: intervals whose undo_log points at the batch journal
        self.journal_ivs = arena.intervals
        #: (window_state, jobs copy, backed_empty snap, backed_covered snap)
        self.windows = arena.windows
        #: (dict, shallow copy) — window-state tables
        self.dicts = arena.dicts
        #: (interval table, index) for intervals materialized mid-batch
        self.created = arena.created


class AlignedReservationScheduler(ReallocatingScheduler):
    """Reallocating scheduler for aligned unit jobs on one machine.

    Parameters
    ----------
    policy:
        Level decomposition (defaults to the paper's tower).
    tracer:
        Optional :class:`EventTracer` receiving fine-grained events.
    journal:
        Undo-journal representation: ``"arena"`` (default — tuple
        opcodes on a reusable :class:`UndoArena`) or
        ``"arena-sanitize"`` (arena plus checking container proxies
        that raise on unjournaled mutation inside an open scope — the
        runtime oracle for the static exception-flow rules; also
        selected by ``REPRO_SANITIZE=1`` in the environment).
    """

    _sparse_costing = True

    #: False suspends the per-request undo journal (failed-request
    #: rollback). Only safe when a failure may corrupt this instance —
    #: i.e. when the owner discards it wholesale on failure, as a
    #: trimming rebuild's fresh inner is: a failed rebuild poisons the
    #: scheduler regardless, so per-survivor journal work is pure waste.
    _journal_enabled = True

    def __init__(self, policy: LevelPolicy = PAPER_POLICY, *,
                 tracer: EventTracer | NullTracer | None = None,
                 journal: str = "arena") -> None:
        super().__init__(num_machines=1)
        journal = resolve_journal(journal)
        self.policy = policy
        self.tracer = tracer if tracer is not None else NullTracer()
        #: sanitizer-oracle mode: journaled containers are wrapped in
        #: checking proxies that raise on unjournaled mutation inside
        #: an open request/batch scope (see repro.analysis.sanitize)
        self._sanitize = journal == "arena-sanitize"
        #: reusable journal storage (per-request and per-atomic-batch)
        self._arena = UndoArena()
        #: slot -> job id (single machine, so slots are global)
        self.slot_job: dict[int, JobId] = {}
        #: job id -> slot
        self.job_slot: dict[JobId, int] = {}
        self._placements: dict[JobId, Placement] = {}
        #: level -> interval index -> Interval (materialized lazily)
        self.intervals: dict[int, dict[int, Interval]] = {
            lv: {} for lv in range(1, policy.num_reservation_levels + 1)
        }
        #: level -> window -> WindowState (only windows with x >= 1)
        self.window_states: dict[int, dict[Window, WindowState]] = {
            lv: {} for lv in range(1, policy.num_reservation_levels + 1)
        }
        self._job_levels: dict[JobId, int] = {}
        self._poisoned = False
        #: undo journal for the in-flight request (failed-request rollback)
        self._journal: list | None = None
        self._jseen: set | None = None
        self._jtouched: list[Interval] | None = None
        #: snapshot log while an *atomic* batch is open (replaces the
        #: per-request journal for the duration of the batch)
        self._abatch: _AtomicBatchLog | None = None
        # Sanitizer proxies must replace the containers BEFORE the
        # hooks/probes below are built: those closures capture the
        # container objects by reference, and a later rebind would
        # split reads (stale plain dicts) from writes (the proxies).
        if self._sanitize:
            install_sanitizer(self)
        #: level -> bit shift mapping a slot to its interval index
        #: (interval spans are powers of two); index 0 is unused padding
        self._iv_shift = [0] + [
            policy.interval_span(lv).bit_length() - 1
            for lv in range(1, policy.num_reservation_levels + 1)
        ]
        #: level -> cached occupancy probe for Interval.rebalance; built
        #: once here so the rebalance path allocates no closures per call
        self._level_probes = {
            lv: self._make_level_probe(lv)
            for lv in range(1, policy.num_reservation_levels + 1)
        }

    # ------------------------------------------------------------------
    # ReallocatingScheduler interface
    # ------------------------------------------------------------------
    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self._placements

    def _apply_insert(self, job: Job) -> None:
        self._check_usable()
        if job.size != 1:
            raise InvalidRequestError("reservation scheduler handles unit jobs only")
        if not job.window.is_aligned:
            raise InvalidRequestError(
                f"window {job.window} is not aligned; use the alignment wrapper"
            )
        level = self.policy.level_of_span(job.span)
        journaled = self._abatch is None and self._journal_enabled
        if journaled:
            self._journal_acquire()
        try:
            self._jdict(self._job_levels, job.id)
            self._job_levels[job.id] = level
            if level == 0:
                self._insert_base(job.id, job.window)
            else:
                self._insert_reserved(job.id, job.window, level)
        except (UnderallocationError, InfeasibleError):
            if journaled:
                self._rollback()
            self._poisoned = True
            raise
        finally:
            if journaled:
                self._journal_release()

    def _apply_delete(self, job: Job) -> None:
        self._check_usable()
        journaled = self._abatch is None and self._journal_enabled
        if journaled:
            self._journal_acquire()
        try:
            level = self._job_levels[job.id]
            self._jdict(self._job_levels, job.id)
            del self._job_levels[job.id]
            slot = self.job_slot[job.id]
            self._clear_placement(job.id, slot)
            self.tracer.emit("delete", job.id, level, f"slot {slot}")
            self._reclassify_backed(slot)
            # The vacated slot rejoins the allowance of every higher level.
            self._notify_raised(slot, level)
            if level >= 1:
                self._retract_reservations(job.id, job.window, level)
        except UnderallocationError:
            if journaled:
                self._rollback()
            self._poisoned = True
            raise
        finally:
            if journaled:
                self._journal_release()

    # ------------------------------------------------------------------
    # undo journal (failed-request rollback)
    # ------------------------------------------------------------------
    def _journal_acquire(self) -> None:
        """Open the per-request journal scope on the reusable arena
        containers (no allocations)."""
        arena = self._arena
        self._journal = arena.entries
        self._jseen = arena.seen
        self._jtouched = arena.intervals

    def _journal_release(self) -> None:
        """Close the per-request journal scope (detach + truncate)."""
        for iv in self._jtouched:
            iv.undo_log = None
        self._arena.truncate()
        self._journal = self._jseen = self._jtouched = None

    def _rollback(self) -> None:
        """Replay the undo journal in reverse, restoring pre-request state.

        When the request ran under a live touched log the journal holds
        no placement-map entries: the three maps rewind from the touched
        log instead, exactly as the atomic-batch abort does
        (``_batch_restore``).
        """
        replay_entries(self._journal)
        touched = self._touched
        if touched is not None:
            # Same orphan-safety argument as _batch_restore: any slot
            # now held by a job it did not hold pre-request belongs to
            # a touched job, so clearing touched jobs first cannot
            # orphan an untouched occupant.
            placements = self._placements
            job_slot = self.job_slot
            slot_job = self.slot_job
            for job_id in touched:
                pl = placements.pop(job_id, None)
                if pl is not None:
                    del slot_job[pl.slot]
                    del job_slot[job_id]
            for job_id, old in touched.items():
                if old is not None:
                    placements[job_id] = old
                    job_slot[job_id] = old.slot
                    slot_job[old.slot] = job_id

    @property
    def journal_entries_total(self) -> int:
        """Undo-journal entries recorded over this scheduler's lifetime.

        Diagnostic counter (one tuple allocation per entry).
        """
        return self._arena.entries_total

    @property
    def journal_impl(self) -> str:
        """The journal representation in use: ``"arena"`` or
        ``"arena-sanitize"`` (checking proxies)."""
        return "arena-sanitize" if self._sanitize else "arena"

    def _jdict(self, d: dict, key: Hashable) -> None:
        """Journal the pre-state of ``d[key]`` (first touch per request)."""
        journal = self._journal
        if journal is None:
            return
        token = (id(d), key)
        seen = self._jseen
        if token in seen:
            return
        seen.add(token)
        old = d.get(key, _MISSING)
        if old is _MISSING:
            journal.append((OP_POP, d, key))
        else:
            journal.append((OP_SET, d, key, old))

    def _jtouch(self, iv: Interval) -> None:
        """Guard an interval's state (first touch per request or batch).

        Per-request mode attaches the undo journal: the interval appends
        the exact inverse of each mutation, and ``_apply_insert`` /
        ``_apply_delete`` detach it when the request finishes. Inside an
        atomic batch the interval attaches the batch-wide journal
        instead, once per batch.
        """
        if self._journal is not None:
            if iv.undo_log is None:
                iv.undo_log = self._journal
                self._jtouched.append(iv)
            return
        ab = self._abatch
        if ab is not None and ab.track and iv.undo_log is None:
            iv.undo_log = ab.journal
            ab.journal_ivs.append(iv)

    def _jwindow_state(self, ws: WindowState) -> None:
        """Snapshot a window state's jobs set and backed indexes.

        First touch per request (undo journal) or per atomic batch
        (batch snapshot log).
        """
        journal = self._journal
        if journal is not None:
            token = id(ws)
            seen = self._jseen
            if token in seen:
                return
            seen.add(token)
            journal.append((OP_WINDOW_STATE, ws, set(ws.jobs),
                            ws.backed_empty.snapshot(),
                            ws.backed_covered.snapshot()))
            return
        ab = self._abatch
        if ab is not None and ab.track and id(ws) not in ab.seen:
            ab.seen.add(id(ws))
            ab.windows.append((ws, set(ws.jobs), ws.backed_empty.snapshot(),
                               ws.backed_covered.snapshot()))

    def _jws_slot(self, iv: Interval, pos: int) -> None:
        """Journal one interval ``_ws`` ladder-cache entry before rebinding.

        The cache is a list, so a plain ``OP_SET`` entry restores it
        (``replay_entries`` subscripts the container either way). No
        first-touch dedup: entries compose exactly under reverse replay,
        and a window state is created/destroyed at most once per scope
        per ladder position in practice.
        """
        journal = self._journal
        if journal is not None:
            journal.append((OP_SET, iv._ws, pos, iv._ws[pos]))
            return
        ab = self._abatch
        if ab is not None and ab.track:
            ab.journal.append((OP_SET, iv._ws, pos, iv._ws[pos]))

    def _jstates_dict(self, states: dict) -> None:
        """Capture a window-state table before structural change (atomic).

        Per-request mode covers table membership via :meth:`_jdict`;
        atomic batches shallow-copy the table once on first touch (the
        member window states are captured separately on their own first
        touch).
        """
        ab = self._abatch
        if ab is not None and ab.track and id(states) not in ab.seen:
            ab.seen.add(id(states))
            ab.dicts.append((states, dict(states)))

    # ------------------------------------------------------------------
    # batch lifecycle (atomic snapshots replace the per-request journal)
    # ------------------------------------------------------------------
    def supports_atomic_batches(self) -> bool:
        return True

    def _flexible_insert_order_key(self) -> "Callable[[Job], object] | None":
        return flexible_span_order

    def _batch_begin(self, *, atomic: bool, top: bool,
                     ephemeral: bool = False,
                     emit_touched: bool = True) -> None:
        super()._batch_begin(atomic=atomic, top=top, ephemeral=ephemeral,
                             emit_touched=emit_touched)
        if atomic:
            self._batch.saved["poisoned"] = self._poisoned
            self._abatch = _AtomicBatchLog(self._arena, track=not ephemeral)

    def _release_batch_log(self, ab: _AtomicBatchLog) -> None:
        """Detach the batch journal and release its arena scope."""
        for iv in ab.journal_ivs:
            iv.undo_log = None
        self._arena.truncate()

    def _batch_commit(self) -> None:
        super()._batch_commit()
        ab, self._abatch = self._abatch, None
        if ab is not None:
            self._release_batch_log(ab)

    def _batch_restore(self, ctx: _BatchContext) -> None:
        ab, self._abatch = self._abatch, None
        # Replay the batch-wide interval journal backwards, then drop
        # the intervals materialized mid-batch (their own undo entries
        # restore dead objects, which is harmless).
        replay_entries(ab.journal)
        for table, index in ab.created:
            table.pop(index, None)
        for ws, jobs, empty, covered in ab.windows:
            ws.jobs = jobs
            ws.backed_empty.restore(empty)
            ws.backed_covered.restore(covered)
        for d, snap in ab.dicts:
            d.clear()
            d.update(snap)
        self._release_batch_log(ab)
        # Placement maps rewind from the batch-level touched log. Any
        # slot now held by a job it did not hold pre-batch belongs to a
        # touched job, so clearing touched jobs first cannot orphan an
        # untouched occupant.
        touched = ctx.touched
        placements = self._placements
        job_slot = self.job_slot
        slot_job = self.slot_job
        for job_id in touched:
            pl = placements.pop(job_id, None)
            if pl is not None:
                del slot_job[pl.slot]
                del job_slot[job_id]
        for job_id, old in touched.items():
            if old is not None:
                placements[job_id] = old
                job_slot[job_id] = old.slot
                slot_job[old.slot] = job_id
        # Job levels are a pure function of the span: rebuild them from
        # the restored job set. Wholesale (O(n), abort-only) rather than
        # incrementally, because a request that failed deep inside
        # _apply_insert/_apply_delete mutated the map without being
        # recorded in the batch's churn.
        # In place (not rebound): the cached level probes close over
        # this dict by reference.
        level_of = self.policy.level_of_span
        levels_map = self._job_levels
        levels_map.clear()
        for job_id, job in self.jobs.items():
            levels_map[job_id] = level_of(job.span)
        self._poisoned = ctx.saved["poisoned"]

    # ------------------------------------------------------------------
    # placement mutation (journal + sparse-cost log in one place)
    # ------------------------------------------------------------------
    def _set_placement(self, job_id: JobId, slot: int) -> None:
        self._log_touch(job_id)
        journal = self._journal
        if journal is not None and self._touched is None:
            # One combined entry for the three-map mutation. When a
            # live touched log exists even this is skipped: _rollback
            # rewinds the maps from the touched log, as _batch_restore
            # does for atomic batches. The dedup tokens keep the
            # sanitizer's first-touch accounting exact.
            seen = self._jseen
            seen.add((id(self._placements), job_id))
            seen.add((id(self.job_slot), job_id))
            seen.add((id(self.slot_job), slot))
            journal.append((OP_PLACE, self, job_id, slot))
        self.slot_job[slot] = job_id
        self.job_slot[job_id] = slot
        self._placements[job_id] = Placement(0, slot)

    def _clear_placement(self, job_id: JobId, slot: int) -> None:
        self._log_touch(job_id)
        journal = self._journal
        if journal is not None and self._touched is None:
            seen = self._jseen
            seen.add((id(self._placements), job_id))
            seen.add((id(self.job_slot), job_id))
            seen.add((id(self.slot_job), slot))
            journal.append((OP_UNPLACE, self, job_id, slot))
        del self.slot_job[slot]
        del self.job_slot[job_id]
        del self._placements[job_id]

    def _undo_place(self, job_id: JobId, slot: int) -> None:
        """Journal inverse of :meth:`_set_placement`.

        Exact (not just idempotent): every ``_set_placement`` call site
        clears any previous occupant of ``slot`` and any previous slot
        of ``job_id`` first, so at record time none of the three keys
        was present.
        """
        del self._placements[job_id]
        del self.job_slot[job_id]
        del self.slot_job[slot]

    def _undo_unplace(self, job_id: JobId, slot: int) -> None:
        """Journal inverse of :meth:`_clear_placement`.

        ``Placement(0, slot)`` reconstructs the cleared value exactly:
        the single-machine scheduler only ever records machine 0.
        """
        self.slot_job[slot] = job_id
        self.job_slot[job_id] = slot
        self._placements[job_id] = Placement(0, slot)

    # ------------------------------------------------------------------
    # backed-slot indexes (PLACE/MOVE fast path)
    # ------------------------------------------------------------------
    def _on_assign(self, ws: WindowState, slot: int) -> None:
        """Interval callback: ``slot`` newly backs a reservation of ``ws``.

        Intervals resolve the window state themselves through their
        ``_ws`` ladder cache (and skip the call while it is None, i.e.
        before the state is published), so the hook is one bound method
        shared by every interval — no per-level closures, no window
        hashing on the hot path.
        """
        # inlined dedup fast path: _jwindow_state is a no-op once the
        # state is snapshotted this request (the common case)
        if self._journal is None or id(ws) not in self._jseen:
            self._jwindow_state(ws)
        occ = self.slot_job.get(slot)
        if occ is None:
            ws.backed_empty.add(slot)
        elif self._job_levels[occ] != ws.level:
            ws.backed_covered.add(slot)
        # own-level occupant: slot backs its own job, in neither index

    def _on_release(self, ws: WindowState, slot: int) -> None:
        """Interval callback: ``slot`` no longer backs ``ws``."""
        if self._journal is None or id(ws) not in self._jseen:
            self._jwindow_state(ws)
        ws.backed_empty.discard(slot)
        ws.backed_covered.discard(slot)

    def _reclassify_backed(self, slot: int) -> None:
        """Refresh ``slot``'s backed-index membership at every level.

        Called after any physical occupancy change; recomputes the
        empty / covered-by-higher / own-occupied classification from the
        live maps (idempotent, O(number of levels)).
        """
        occ = self.slot_job.get(slot)
        occ_level = self._job_levels[occ] if occ is not None else None
        shifts = self._iv_shift
        intervals = self.intervals
        journal = self._journal
        jseen = self._jseen
        for lv in range(1, self.policy.num_reservation_levels + 1):
            iv = intervals[lv].get(slot >> shifts[lv])
            if iv is None:
                continue
            pos = iv._owner[slot - iv.lo]
            if pos < 0:
                continue
            ws = iv._ws[pos]
            if ws is None:
                continue
            if journal is None or id(ws) not in jseen:
                self._jwindow_state(ws)
            ws.backed_empty.discard(slot)
            ws.backed_covered.discard(slot)
            if occ is None:
                ws.backed_empty.add(slot)
            elif occ_level != lv:
                ws.backed_covered.add(slot)

    def _make_window_state(self, window: Window, level: int) -> WindowState:
        """Create (and journal) the window state, seeding its indexes.

        Materializes every interval of the window first (establishing
        their baseline fulfillments, as the seed's PLACE scan did
        implicitly), then seeds the backed indexes from the live
        assignments. The window state is published only afterwards, so
        the materialization rebalances cannot double-count through the
        assignment hooks.
        """
        states = self.window_states[level]
        self._jdict(states, window)
        self._jstates_dict(states)
        ws = WindowState(window, level,
                         self.policy.intervals_of_window(level, window))
        levels = self._job_levels
        slot_job = self.slot_job
        backed_empty_add = ws.backed_empty.add
        backed_covered_add = ws.backed_covered.add
        member_ivs = []
        pos = -1
        for idx in ws.interval_ids:
            iv = self._interval(level, idx)
            member_ivs.append(iv)
            if pos < 0:
                pos = iv._pos(window)
            for s in sorted(iv._aslots[pos]):
                occ = slot_job.get(s)
                if occ is None:
                    backed_empty_add(s)
                elif levels[occ] != level:
                    backed_covered_add(s)
        ws.ladder_pos = pos
        # Publish the ladder-cache references only after seeding: the
        # materialization rebalances above ran with _ws[pos] still None,
        # so their assignment hooks could not double-count.
        for iv in member_ivs:
            self._jws_slot(iv, pos)
            iv._ws[pos] = ws
        states[window] = ws
        return ws

    # ------------------------------------------------------------------
    # level >= 1: reservations
    # ------------------------------------------------------------------
    def _insert_reserved(self, job_id: JobId, window: Window, level: int) -> None:
        ws = self.window_states[level].get(window)
        if ws is None:
            ws = self._make_window_state(window, level)
        x_old = ws.x
        self._jwindow_state(ws)
        ws.jobs.add(job_id)
        # Invariant 5: two new dynamic reservations, round-robin targets.
        base_index = ws.interval_ids.start
        emit = self.tracer.emit
        for pos, delta in rr_diff(x_old, ws.x, ws.n_intervals).items():
            iv = self._interval(level, base_index + pos)
            if iv.undo_log is None:  # inlined _jtouch first-touch guard
                self._jtouch(iv)
            iv.add_dynamic(window, delta)
            emit("reserve", job_id, level, f"interval {iv.index} {delta:+d}")
            self._rebalance(iv)
        self._place(job_id, window, level)

    def _retract_reservations(self, job_id: JobId, window: Window, level: int) -> None:
        states = self.window_states[level]
        ws = states[window]
        x_old = ws.x
        self._jwindow_state(ws)
        ws.jobs.discard(job_id)
        base_index = ws.interval_ids.start
        for pos, delta in rr_diff(x_old, ws.x, ws.n_intervals).items():
            iv = self._interval(level, base_index + pos)
            if iv.undo_log is None:  # inlined _jtouch first-touch guard
                self._jtouch(iv)
            iv.add_dynamic(window, delta)
            self._rebalance(iv)
        if ws.x == 0:
            self._jdict(states, window)
            self._jstates_dict(states)
            del states[window]
            # Drop the ladder-cache references (journaled per entry:
            # _ws lists restore through plain OP_SET replay on abort)
            table = self.intervals[level]
            pos = ws.ladder_pos
            for idx in ws.interval_ids:
                iv = table.get(idx)
                if iv is not None:
                    self._jws_slot(iv, pos)
                    iv._ws[pos] = None

    def _place(self, job_id: JobId, window: Window, level: int) -> None:
        """Figure 1, PLACE: put the job on a fulfilled slot of its window."""
        slot = self._find_fulfilled_free_slot(window, level)
        if slot is None:
            raise UnderallocationError(
                f"no fulfilled reservation of {window} has a level-{level}-job-free "
                "slot; the instance violates the Lemma 8 underallocation assumption",
                level=level, window=window,
            )
        self.tracer.emit("place", job_id, level, f"slot {slot}")
        self._occupy(job_id, level, slot)

    def _find_fulfilled_free_slot(
        self, window: Window, level: int, *, exclude: int | None = None,
    ) -> int | None:
        """A slot assigned to ``window`` holding no level-``level`` job.

        Prefers truly empty slots, falling back to the lowest-numbered
        slot under a higher-level job — served in O(1) from the window
        state's backed-slot indexes (``_scan_fulfilled_free_slot`` is the
        equivalent index-free scan, kept as the validation oracle).
        """
        ws = self.window_states[level].get(window)
        if ws is None:  # pragma: no cover - PLACE/MOVE targets always have one
            return self._scan_fulfilled_free_slot(window, level, exclude=exclude)
        slot = ws.backed_empty.first(exclude)
        if slot is not None:
            return slot
        return ws.backed_covered.first(exclude)

    def _scan_fulfilled_free_slot(
        self, window: Window, level: int, *, exclude: int | None = None,
    ) -> int | None:
        """Index-free reference implementation of the PLACE slot choice."""
        fallback: int | None = None
        slot_job = self.slot_job
        levels = self._job_levels
        for idx in self.policy.intervals_of_window(level, window):
            iv = self.intervals[level].get(idx)
            if iv is None:
                continue
            for s in sorted(iv.assigned.get(window, ())):
                if s == exclude:
                    continue
                occ = slot_job.get(s)
                if occ is None:
                    return s
                if levels[occ] == level:
                    continue
                if fallback is None:
                    fallback = s
        return fallback

    def _move(self, job_id: JobId, level: int) -> None:
        """Figure 1, MOVE: relocate a job whose backing slot was revoked.

        Swaps the old and new slots' bookkeeping in every ancestor
        interval (net allowance change zero), physically relocating at
        most one higher-level job.
        """
        window = self.jobs[job_id].window
        old = self.job_slot[job_id]
        new = self._find_fulfilled_free_slot(window, level, exclude=old)
        if new is None:
            raise UnderallocationError(
                f"MOVE found no alternative fulfilled slot for {window}; "
                "instance violates the Lemma 8 underallocation assumption",
                level=level, window=window,
            )
        self.tracer.emit("move", job_id, level, f"{old} -> {new}")
        displaced = self.slot_job.get(new)
        # Physical relocation: job -> new; displaced higher job (if any) -> old.
        self._clear_placement(job_id, old)
        if displaced is not None:
            self._clear_placement(displaced, new)
        self._set_placement(job_id, new)
        if displaced is not None:
            self._set_placement(displaced, old)
            self.tracer.emit("displace-swap", displaced, self._job_levels[displaced],
                             f"{new} -> {old}")
        # Ancestor bookkeeping swap (Figure 1, lines 12-13).
        shifts = self._iv_shift
        for lv in self.policy.levels_above(level):
            idx_old = old >> shifts[lv]
            if idx_old != new >> shifts[lv]:  # pragma: no cover - defensive
                raise AssertionError(
                    "MOVE endpoints must share every ancestor interval"
                )
            iv = self.intervals[lv].get(idx_old)
            if iv is not None:
                self._jtouch(iv)
                iv.swap_slots(old, new)
        self._reclassify_backed(old)
        self._reclassify_backed(new)

    def _occupy(self, job_id: JobId, level: int, slot: int) -> None:
        """Physically place a job, displacing at most one higher-level job.

        Handles the allowance-shrink cascade of Figure 1 lines 17-21 and
        recursively re-places the displaced job (line 22-23).
        """
        displaced = self.slot_job.get(slot)
        displaced_level: int | None = None
        if displaced is not None:
            displaced_level = self._job_levels[displaced]
            if displaced_level <= level:  # pragma: no cover - defensive
                raise AssertionError(
                    "pecking order violated: displacing a non-higher-level job"
                )
            self._clear_placement(displaced, slot)
            self.tracer.emit("displace", displaced, displaced_level, f"slot {slot}")
        self._set_placement(job_id, slot)
        self._reclassify_backed(slot)
        # The slot leaves the allowance of levels (level, top].
        top = (displaced_level if displaced_level is not None
               else self.policy.num_reservation_levels)
        shifts = self._iv_shift
        for lv in range(level + 1, top + 1):
            iv = self.intervals[lv].get(slot >> shifts[lv])
            if iv is not None:
                if not iv._lower[slot - iv.lo]:
                    self._jtouch(iv)
                    iv.slot_lowered(slot)
                self._rebalance(iv)
        if displaced is not None:
            self._place(displaced, self.jobs[displaced].window, displaced_level)

    def _notify_raised(self, slot: int, level: int) -> None:
        """A level-``level`` job vacated ``slot``: higher allowances grow."""
        shifts = self._iv_shift
        for lv in range(level + 1, self.policy.num_reservation_levels + 1):
            iv = self.intervals[lv].get(slot >> shifts[lv])
            if iv is not None:
                if iv._lower[slot - iv.lo]:
                    self._jtouch(iv)
                    iv.slot_raised(slot)
                self._rebalance(iv)

    def _rebalance(self, iv: Interval) -> None:
        """Reconcile an interval's assignment and MOVE any revoked jobs."""
        if not iv._stale:
            return  # nothing changed since the last reconciliation
        if iv.undo_log is None:  # inlined _jtouch first-touch guard
            self._jtouch(iv)
        revoked = iv.rebalance(self._level_probes[iv.level], self._empty_at)
        for job_id in revoked:
            self._move(job_id, iv.level)

    # ------------------------------------------------------------------
    # level 0: naive pecking-order base case (Lemma 4 at constant size)
    # ------------------------------------------------------------------
    def _insert_base(self, job_id: JobId, window: Window) -> None:
        current_id, current_window = job_id, window
        emit = self.tracer.emit
        for _guard in range(2 * self.policy.base_threshold.bit_length() + 4):
            slot = self._find_base_slot(current_window)
            if slot is not None:
                emit("base-place", current_id, 0, f"slot {slot}")
                self._occupy(current_id, 0, slot)
                return
            victim = self._find_base_victim(current_window)
            if victim is None:
                raise InfeasibleError(
                    f"window {current_window} already holds {current_window.span} "
                    "jobs with nested windows; instance is infeasible"
                )
            # Take the victim's slot: both are level-0 jobs, so no
            # higher-level allowance changes (the slot stays lowered) and
            # no backed index changes (level-0 occupant before and after).
            vslot = self.job_slot[victim]
            self._clear_placement(victim, vslot)
            self._set_placement(current_id, vslot)
            emit("base-cascade", victim, 0, f"evicted from {vslot}")
            current_id, current_window = victim, self.jobs[victim].window
        raise AssertionError(  # pragma: no cover - cascade strictly grows spans
            "base-level cascade exceeded the span-doubling bound"
        )

    def _find_base_slot(self, window: Window) -> int | None:
        """A slot in the window free of level-0 jobs; empty preferred.

        The scan is over at most ``L_1 = base_threshold`` slots — the
        constant-cost base case of Lemma 4 — with an early exit on the
        first truly empty slot.
        """
        fallback: int | None = None
        slot_job = self.slot_job
        levels = self._job_levels
        for s in window.slots():
            occ = slot_job.get(s)
            if occ is None:
                return s
            if levels[occ] == 0:
                continue
            if fallback is None:
                fallback = s
        return fallback

    def _find_base_victim(self, window: Window) -> JobId | None:
        """The level-0 job in the window with the smallest span > |window|.

        Aligned spans strictly above ``|window|`` are at least
        ``2 * |window|`` — the paper's "span >= 2**(i+1)" condition.
        """
        best: JobId | None = None
        best_key: tuple[int, int] | None = None
        slot_job = self.slot_job
        levels = self._job_levels
        jobs = self.jobs
        for s in window.slots():
            occ = slot_job.get(s)
            if occ is None or levels[occ] != 0:
                continue
            span = jobs[occ].span
            if span <= window.span:
                continue
            key = (span, s)
            if best_key is None or key < best_key:
                best, best_key = occ, key
        return best

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _interval(self, level: int, index: int) -> Interval:
        """Materialize (or fetch) a level-``level`` interval."""
        table = self.intervals[level]
        iv = table.get(index)
        if iv is not None:
            return iv
        span = self.policy.interval_span(level)
        iv = Interval(
            level=level, index=index,
            lo=index * span, hi=(index + 1) * span,
            enclosing_spans=tuple(self.policy.enclosing_spans(level)),
            on_assign=self._on_assign,
            on_release=self._on_release,
        )
        slot_job = self.slot_job
        levels = self._job_levels
        lowered = [s for s in iv.slots()
                   if (occ := slot_job.get(s)) is not None
                   and levels[occ] < level]
        if lowered:
            iv.seed_lower(lowered)
        # Seed the ladder cache from the already-published window states
        # (fresh intervals start with every _ws entry None).
        states = self.window_states[level]
        if states:
            ws_list = iv._ws
            for pos, w in enumerate(iv._windows):
                ws_list[pos] = states.get(w)
        journal = self._journal
        if journal is not None:
            journal.append((OP_POP, table, index))
        elif self._abatch is not None and self._abatch.track:
            self._abatch.created.append((table, index))
        table[index] = iv
        # Establish baseline fulfillments; a fresh interval has no
        # assignments, so nothing can be revoked.
        revoked = iv.rebalance(self._level_job_at(level), self._empty_at)
        if revoked:  # pragma: no cover - impossible on a fresh interval
            raise AssertionError("fresh interval revoked jobs")
        return iv

    def _make_level_probe(self, level: int) -> Callable[[int], JobId | None]:
        """Occupancy probe handed to :meth:`Interval.rebalance`.

        Built once per level (``_level_probes``) so the rebalance hot
        path performs a dict lookup instead of allocating a closure per
        call. Closes over the live maps by reference, which is why
        ``_job_levels`` must only ever be mutated in place — see
        ``_batch_restore``.
        """
        slot_job = self.slot_job
        levels = self._job_levels

        def probe(slot: int) -> JobId | None:
            occ = slot_job.get(slot)
            if occ is not None and levels[occ] == level:
                return occ
            return None
        return probe

    def _level_job_at(self, level: int) -> Callable[[int], JobId | None]:
        return self._level_probes[level]

    def _empty_at(self, slot: int) -> bool:
        return slot not in self.slot_job

    def _check_usable(self) -> None:
        if self._poisoned:
            raise UnderallocationError(
                "scheduler previously hit an underallocation failure and its "
                "internal state is no longer trustworthy; build a fresh one"
            )

    @property
    def poisoned(self) -> bool:
        return self._poisoned

    def level_of(self, job_id: JobId) -> int:
        """Level at which an active job is managed."""
        return self._job_levels[job_id]

    def active_levels(self) -> dict[int, int]:
        """Job count per level (diagnostics / reports)."""
        counts: dict[int, int] = {}
        for lv in self._job_levels.values():
            counts[lv] = counts.get(lv, 0) + 1
        return dict(sorted(counts.items()))
