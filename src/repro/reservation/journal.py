"""Tuple-opcode undo journals on a reusable arena (the allocation diet).

Every failed-request and atomic-batch rollback in the reservation stack
replays an *undo journal*: a sequence of entries, each restoring one
mutation, replayed in reverse.

- **Tuple opcodes** — a journal entry is a plain tuple
  ``(opcode, target, *args)``; one allocation, no cells, immutable.
  :func:`replay_entries` is the single dispatch loop that replays any
  journal backwards.
- **Arena** — :class:`UndoArena` owns the journal's container objects
  (entry list, first-touch dedup set, attached-interval list, and the
  atomic batch log's snapshot lists) once per scheduler instead of
  allocating fresh ones per request/batch. A scope appends entries,
  replays them backwards on failure, and releases its storage with
  :meth:`UndoArena.truncate` — so the same storage is reused request
  after request and burst after burst. Every scope spans the whole
  arena (the per-request journal and the atomic batch log never coexist
  on one scheduler).

Opcode reference (entry layouts)
--------------------------------
========================  ==================================================
``(OP_ASSIGN, iv, pos, slot)``        undo an interval slot assignment
``(OP_RELEASE, iv, pos, slot)``       undo an interval slot release
``(OP_DYNAMIC, iv, pos, delta)``      undo a dynamic-reservation delta
``(OP_LOWERED, iv, slot, opos)``      undo an allowance shrink (opos = owner
                                      ladder position, -1 for unowned)
``(OP_RAISED, iv, slot)``             undo an allowance growth
``(OP_SWAP, iv, s1, s2)``             undo a slot-role swap (involution)
``(OP_POP, mapping, key)``            remove a key added by the request
``(OP_SET, mapping, key, old)``       restore a mapping entry's old value
``(OP_WINDOW_STATE, ws, jobs, empty, covered)``  restore a WindowState
``(OP_PLACE, sched, job_id, slot)``   undo one placement (all three maps)
``(OP_UNPLACE, sched, job_id, slot)`` redo one placement (all three maps)
========================  ==================================================

Interval entries address state *positionally* (``pos`` = the enclosing
window's ladder position, ``slot`` relative slot ints) — no Window
objects, so recording an entry never hashes a window. ``OP_PLACE`` /
``OP_UNPLACE`` are the placement-map fold: one combined entry replaces
the three per-map ``OP_SET``/``OP_POP`` entries a placement mutation
used to record, exploiting that the three maps only ever change
together through ``_set_placement`` / ``_clear_placement``.

The property tests in ``tests/test_journal_arena.py`` pin the undone
state, across poisoned requests, deep atomic aborts, trimming rebuilds
and process-worker crash rollback, to that of a fresh scheduler that
replays only the committed requests — a reference that never runs an
undo primitive.
"""

from __future__ import annotations

# Opcodes are small ints compared with ``==`` in the dispatch loop,
# ordered roughly by hot-path frequency (assign/release dominate).
OP_ASSIGN = 0
OP_RELEASE = 1
OP_DYNAMIC = 2
OP_POP = 3
OP_SET = 4
OP_WINDOW_STATE = 5
OP_LOWERED = 6
OP_RAISED = 7
OP_SWAP = 8
OP_PLACE = 9
OP_UNPLACE = 10


def replay_entries(entries: list) -> None:
    """Replay journal entries in reverse.

    The single dispatch loop shared by failed-request rollback and
    atomic-batch abort.
    """
    for i in range(len(entries) - 1, -1, -1):
        e = entries[i]
        op = e[0]
        if op == OP_ASSIGN:
            e[1]._undo_assign(e[2], e[3])
        elif op == OP_RELEASE:
            e[1]._undo_release(e[2], e[3])
        elif op == OP_DYNAMIC:
            e[1]._undo_dynamic(e[2], e[3])
        elif op == OP_POP:
            e[1].pop(e[2], None)
        elif op == OP_SET:
            e[1][e[2]] = e[3]
        elif op == OP_WINDOW_STATE:
            ws = e[1]
            ws.jobs = e[2]
            ws.backed_empty.restore(e[3])
            ws.backed_covered.restore(e[4])
        elif op == OP_LOWERED:
            e[1]._undo_slot_lowered(e[2], e[3])
        elif op == OP_RAISED:
            e[1]._undo_slot_raised(e[2])
        elif op == OP_SWAP:
            # the raw swap is an involution; hooks are not refired on
            # undo (the window-state journal entries restore those)
            e[1]._swap_raw(e[2], e[3], fire_hooks=False)
        elif op == OP_PLACE:
            e[1]._undo_place(e[2], e[3])
        elif op == OP_UNPLACE:
            e[1]._undo_unplace(e[2], e[3])
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown journal opcode in {e!r}")


class UndoArena:
    """Reusable journal storage, one per scheduler.

    The containers are allocated once and shared by every per-request
    journal and every atomic batch log the owning scheduler opens
    (per-request journals and the batch log never coexist: atomic
    batches switch the per-request journal off). Scopes release by
    truncating the arena; the container objects themselves are never
    reallocated.

    Attributes
    ----------
    entries:
        The append-only journal of tuple opcodes. Intervals append to
        this list directly via their ``undo_log`` reference, at C speed.
    seen:
        First-touch dedup tokens (``(id(mapping), key)`` per-request,
        ``id(obj)`` per-batch).
    intervals:
        Intervals whose ``undo_log`` currently points at ``entries``
        (detached and truncated on scope exit).
    windows / dicts / created:
        The atomic batch log's snapshot lists (window-state snapshots,
        table shallow-copies, mid-batch interval materializations).
    entries_total:
        Diagnostic: total journal entries recorded over the arena's
        lifetime (read by the benchmark's per-layer trace).
    """

    __slots__ = ("entries", "seen", "intervals", "windows", "dicts",
                 "created", "entries_total")

    def __init__(self) -> None:
        self.entries: list = []
        self.seen: set = set()
        self.intervals: list = []
        self.windows: list = []
        self.dicts: list = []
        self.created: list = []
        self.entries_total = 0

    def truncate(self) -> None:
        """Release every journal entry (scope exit).

        Also counts the released entries into ``entries_total`` and
        clears the shared dedup and snapshot containers for the next
        scope.
        """
        entries = self.entries
        self.entries_total += len(entries)
        entries.clear()
        self.seen.clear()
        self.intervals.clear()
        self.windows.clear()
        self.dicts.clear()
        self.created.clear()
