"""Runtime journal sanitizer: checking proxies for journaled containers.

The static ``exception-flow`` rules (``staticcheck/stateflow.py``)
prove journal coverage syntactically; this module is the dynamic half
of the differential: checking ``dict`` proxies installed over the
aligned scheduler's journaled containers that raise
:class:`UnjournaledMutationError` the moment a mutation lands inside
an open request or batch scope without its journal entry having been
recorded first. A clean four-backend differential run under the
sanitizer shows the static rules are not unsound (nothing slips past
both); a fault-injection test that strips one ``_jdict`` call and
watches both layers fire shows they are not vacuous.

Enable per instance with ``journal="arena-sanitize"`` or globally with
``REPRO_SANITIZE=1`` in the environment (upgrades every ``"arena"``
scheduler at construction). The proxies are plain ``dict`` subclasses
and cost one attribute read plus one set probe per mutation — an
oracle mode, not a production default.

What is checked, by container:

- ``_placements`` / ``job_slot`` (*job*-keyed): request scope requires
  the ``(id(dict), key)`` first-touch token in the open journal's seen
  set; atomic-batch scope requires the job in the batch touched log
  (``_batch_restore`` rewinds placements from exactly that log).
- ``slot_job`` (*slot*-keyed): same, with the job identity taken from
  the value being written (or the current occupant on delete).
- ``_job_levels``: request scope as above; atomic scope is always
  legal because ``_batch_restore`` rebuilds the level map wholesale.
- ``window_states[lv]`` tables: request scope as above; atomic scope
  requires the table's shallow snapshot (``_jstates_dict``).

Mutations outside any scope — construction, ``_batch_restore`` itself
(the batch log is detached before restoring), journal-free ephemeral
rebuilds — are always legal.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Mapping

__all__ = [
    "SanitizedDict",
    "UnjournaledMutationError",
    "install_sanitizer",
    "resolve_journal",
    "sanitize_enabled",
]

#: environment switch: upgrades ``journal="arena"`` schedulers to
#: ``"arena-sanitize"`` at construction time
SANITIZE_ENV = "REPRO_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitize_enabled() -> bool:
    """Is the ``REPRO_SANITIZE`` environment switch on?"""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in _TRUTHY


#: the settable undo-journal representations
JOURNAL_IMPLS = ("arena", "arena-sanitize")


def resolve_journal(journal: str) -> str:
    """Validate a ``journal=`` argument and apply the environment switch.

    Every scheduler constructor that takes ``journal=`` calls this, so
    each layer of a stack reports the representation its inners run:
    ``"arena"`` becomes ``"arena-sanitize"`` under ``REPRO_SANITIZE=1``.
    """
    if journal not in JOURNAL_IMPLS:
        raise ValueError(
            f"journal must be 'arena' or 'arena-sanitize', got {journal!r}")
    if journal == "arena" and sanitize_enabled():
        return "arena-sanitize"
    return journal


class UnjournaledMutationError(RuntimeError):
    """A journaled container was mutated inside an open request/batch
    scope without its journal entry having been recorded first.

    Deliberately *not* a :class:`~repro.core.errors.ReproError`
    subclass: the request paths catch and roll back domain errors, and
    a sanitizer report must never be swallowed into a rollback — it
    means the rollback itself would have been wrong.
    """


def _touched_covers(owner: Any, job_id: Any) -> bool:
    """Is ``job_id`` in the live or batch-level touched log?"""
    if job_id is None:
        return False
    touched = getattr(owner, "_touched", None)
    if touched is not None and job_id in touched:
        return True
    batch = getattr(owner, "_batch", None)
    if batch is not None:
        batch_touched = batch.touched
        if batch_touched is not None and job_id in batch_touched:
            return True
    return False


class SanitizedDict(dict):
    """A journaled container that verifies its own journal coverage.

    ``kind`` selects the atomic-scope discipline (see the module
    docstring); ``owner`` is the scheduler whose journal state is
    consulted.
    """

    _owner: Any
    _label: str
    _kind: str

    def __init__(self, data: Mapping[Any, Any], *, owner: Any,
                 label: str, kind: str) -> None:
        super().__init__(data)
        self._label = label
        self._kind = kind
        self._owner = owner

    # -- the guard ------------------------------------------------------
    def _report(self, key: Any, why: str) -> None:
        raise UnjournaledMutationError(
            f"unjournaled mutation of {self._label}[{key!r}]: {why}. "
            "Rollback would not restore this entry — journal first "
            "(call the matching _j* first-touch helper before mutating)"
        )

    def _guard(self, key: Any, job_id: Any) -> None:
        owner = self._owner
        if getattr(owner, "_journal", None) is not None:
            if (id(self), key) in owner._jseen:
                return
            # Placement-map diet: the failed-request rollback rewinds
            # the three placement maps from the *live* touched log (not
            # the batch-level one — that only rewinds on batch abort),
            # so live-touched coverage is as good as a journal entry
            # for the job/slot kinds.
            if self._kind in ("job", "slot") and job_id is not None:
                touched = getattr(owner, "_touched", None)
                if touched is not None and job_id in touched:
                    return
            self._report(
                key, "the per-request journal holds no first-touch "
                     "token for this key and the live touched log does "
                     "not cover it")
            return
        abatch = getattr(owner, "_abatch", None)
        if abatch is None or not abatch.track:
            return  # no open scope (or an ephemeral, untracked batch)
        kind = self._kind
        if kind == "levels":
            return  # _batch_restore rebuilds the level map wholesale
        if kind == "states":
            if id(self) in abatch.seen:
                return
            self._report(
                key, "the atomic batch holds no shallow snapshot of "
                     "this window-state table")
            return
        if _touched_covers(owner, job_id):
            return
        self._report(
            key, f"job {job_id!r} is not in the batch touched log, so "
                 "the atomic rewind would miss it")

    def _guard_set(self, key: Any, value: Any) -> None:
        self._guard(key, value if self._kind == "slot" else key)

    def _guard_del(self, key: Any) -> None:
        if self._kind == "slot":
            occupant = dict.get(self, key)
            if occupant is None:
                return  # missing key: let the dict op raise KeyError
            self._guard(key, occupant)
        else:
            self._guard(key, key)

    # -- mutators -------------------------------------------------------
    def __setitem__(self, key: Any, value: Any) -> None:
        self._guard_set(key, value)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key: Any) -> None:
        self._guard_del(key)
        dict.__delitem__(self, key)

    def pop(self, key: Any, *default: Any) -> Any:
        if dict.__contains__(self, key):
            self._guard_del(key)
        return dict.pop(self, key, *default)

    def popitem(self) -> tuple[Any, Any]:
        if self:
            self._guard_del(next(reversed(self)))
        return dict.popitem(self)

    def clear(self) -> None:
        for key in self:
            self._guard_del(key)
        dict.clear(self)

    def update(self, *args: Iterable[Any], **kwargs: Any) -> None:
        items = dict(*args, **kwargs)
        for key, value in items.items():
            self._guard_set(key, value)
        dict.update(self, items)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        if not dict.__contains__(self, key):
            self._guard_set(key, default)
        return dict.setdefault(self, key, default)


def install_sanitizer(sched: Any) -> None:
    """Wrap a freshly-constructed aligned scheduler's journaled
    containers in checking proxies (``journal="arena-sanitize"``).

    Must run before any request touches the containers; the
    window-state tables are wrapped per level (the outer level map is
    fixed at construction and never mutated afterwards).
    """
    sched.slot_job = SanitizedDict(
        sched.slot_job, owner=sched, label="slot_job", kind="slot")
    sched.job_slot = SanitizedDict(
        sched.job_slot, owner=sched, label="job_slot", kind="job")
    sched._placements = SanitizedDict(
        sched._placements, owner=sched, label="_placements", kind="job")
    sched._job_levels = SanitizedDict(
        sched._job_levels, owner=sched, label="_job_levels", kind="levels")
    for lv, table in sched.window_states.items():
        sched.window_states[lv] = SanitizedDict(
            table, owner=sched, label=f"window_states[{lv}]",
            kind="states")
