"""Elastic machines: an implementation of a Section 7 open question.

The paper closes with: *"What happens if other types of reallocations
are allowed, such as if new machines can be added or dropped from the
schedule…?"* This module supplies a concrete answer for the delegation
layer: :class:`ElasticScheduler` extends the Section 3 reduction with
``add_machine`` / ``remove_machine`` operations that re-establish the
per-window floor/ceil balance invariant with the *minimum* number of
migrations, and measures that cost in the standard ledger.

What the measurement shows (``bench_elastic.py``'s E13): adding a
machine to m machines costs about ``sum_W floor(n_W / (m+1))``
migrations — every window sheds its share to the newcomer, totalling
~n/(m+1) — and removing a machine costs ~n/m (its jobs must go
somewhere). Both are Theta(n/m) per elasticity event, and that is
optimal to within constants: any window whose jobs every machine must
share forces Omega(n_W/m) moves onto a new machine, and a dropped
machine's jobs must all move. So unlike inserts/deletes, elasticity
events are inherently linear-in-load — a concrete negative observation for the open question.

The per-window *scheduling* after re-delegation is handled by the
single-machine schedulers exactly as in Section 3; Lemma 3's argument
is unaffected because the ceil(n_W/m) balance bound still holds at the
new machine count.
"""

from __future__ import annotations

from typing import Callable

from ..core.base import ReallocatingScheduler
from ..core.costs import RequestCost, diff_placements
from ..core.exceptions import InvalidRequestError
from ..core.job import Job, JobId
from ..core.window import Window
from .delegation import DelegatingScheduler, WindowBalancer

#: (job, from_machine or None for evicted jobs, to_machine)
Move = tuple[JobId, "int | None", int]


def balanced_targets(total: int, m: int) -> list[int]:
    """Per-machine counts for ``total`` jobs: extras on earliest machines."""
    q, r = divmod(total, m)
    return [q + (1 if i < r else 0) for i in range(m)]


class ElasticWindowBalancer(WindowBalancer):
    """WindowBalancer that supports growing and shrinking the pool."""

    def grow(self) -> list[Move]:
        """Add one machine; return the minimal moves restoring balance."""
        self.m += 1
        moves: list[Move] = []
        for window, members in self._members.items():
            members.append(set())
            moves.extend(self._rebalance_window(window, members))
        return moves

    def shrink(self, index: int) -> list[Move]:
        """Drop machine ``index``; its jobs re-land on the survivors."""
        if self.m <= 1:
            raise ValueError("cannot shrink below one machine")
        self.m -= 1
        moves: list[Move] = []
        for window in list(self._members):
            members = self._members[window]
            homeless = members.pop(index)
            for job_id in homeless:
                del self._where[job_id]
            # Survivors above the dropped index shift down by one.
            for mi in range(index, self.m):
                for job_id in members[mi]:
                    self._where[job_id] = (window, mi)
            moves.extend(self._rebalance_window(window, members,
                                                homeless=homeless))
        return moves

    def _rebalance_window(
        self,
        window: Window,
        members: list[set[JobId]],
        homeless: set[JobId] = frozenset(),
    ) -> list[Move]:
        """Move jobs between machines until counts match the target profile.

        ``homeless`` jobs (from a dropped machine) count toward the
        total and are placed first, emitting ``from_machine=None``
        moves. Job choice is deterministic (min by string id).
        """
        total = sum(len(s) for s in members) + len(homeless)
        target = balanced_targets(total, self.m)
        moves: list[Move] = []
        deficits = [
            i
            for i in range(self.m)
            for _ in range(target[i] - len(members[i]))
            if len(members[i]) < target[i]
        ]
        di = 0
        for job_id in sorted(homeless, key=str):
            dst = deficits[di]
            di += 1
            members[dst].add(job_id)
            self._where[job_id] = (window, dst)
            moves.append((job_id, None, dst))
        for src in range(self.m):
            while len(members[src]) > target[src]:
                job_id = min(members[src], key=str)
                dst = deficits[di]
                di += 1
                members[src].discard(job_id)
                members[dst].add(job_id)
                self._where[job_id] = (window, dst)
                moves.append((job_id, src, dst))
        return moves


class ElasticScheduler(DelegatingScheduler):
    """Delegating scheduler whose machine pool can grow and shrink.

    ``add_machine``/``remove_machine`` are first-class requests with
    measured costs (every moved job counts as a reallocation and a
    migration). Regular inserts/deletes behave exactly as in
    :class:`DelegatingScheduler`.
    """

    def __init__(
        self,
        num_machines: int,
        scheduler_factory: Callable[[], ReallocatingScheduler],
    ) -> None:
        super().__init__(num_machines, scheduler_factory)
        self._factory = scheduler_factory
        self.balancer = ElasticWindowBalancer(num_machines)

    # ------------------------------------------------------------------
    def add_machine(self) -> RequestCost:
        """Add one machine; rebalance every window onto it."""
        if self._batch is not None:
            raise InvalidRequestError(
                "machine pool changes are not allowed inside a batch"
            )
        before = dict(self.placements)
        self.machines.append(self._factory())
        self.num_machines += 1
        moves = self.balancer.grow()
        self._execute(moves)
        self._rebuild_merged()
        cost = diff_placements(
            before, self.placements, kind="add-machine",
            subject=f"machine{self.num_machines - 1}",
            n_active=len(self.jobs), max_span=self._max_span_cache,
        )
        self.ledger.record(cost)
        return cost

    def remove_machine(self, index: int) -> RequestCost:
        """Drop a machine; its jobs migrate to the survivors."""
        if self._batch is not None:
            raise InvalidRequestError(
                "machine pool changes are not allowed inside a batch"
            )
        if self.num_machines <= 1:
            raise ValueError("cannot remove the last machine")
        if not 0 <= index < self.num_machines:
            raise ValueError(f"no machine {index}")
        # Survivor machines above `index` shift down by one position.
        # That relabeling is bookkeeping, not movement, so the cost diff
        # compares against a relabel-corrected snapshot: only jobs that
        # physically changed machines (the evicted ones plus rebalance
        # moves) count as migrations.
        from ..core.job import Placement

        def relabel(pl: Placement) -> Placement:
            if pl.machine > index:
                return Placement(pl.machine - 1, pl.slot)
            if pl.machine == index:
                # Evicted jobs: map to a sentinel position outside the
                # surviving range so any landing spot counts as a move.
                return Placement(self.num_machines, pl.slot)
            return pl

        before = {job_id: relabel(pl)
                  for job_id, pl in self.placements.items()}
        evicted = dict(self.machines[index].jobs)
        del self.machines[index]
        self.num_machines -= 1
        moves = self.balancer.shrink(index)
        self._execute(moves, evicted)
        self._rebuild_merged()
        cost = diff_placements(
            before, self.placements, kind="remove-machine",
            subject=f"machine{index}",
            n_active=len(self.jobs), max_span=self._max_span_cache,
        )
        self.ledger.record(cost)
        return cost

    # ------------------------------------------------------------------
    def _execute(self, moves: list[Move],
                 evicted: dict[JobId, Job] | None = None) -> None:
        """Apply moves through the single-machine scheduler layers."""
        evicted = evicted or {}
        for job_id, src, dst in moves:
            if src is None:
                job = evicted[job_id]
            else:
                job = self.machines[src].jobs[job_id]
                self.machines[src].delete(job_id)
            self.machines[dst].insert(job)

    def _rebuild_merged(self) -> None:
        """Recompute the merged placement map after an elasticity event.

        Machine indexes shift when the pool changes, so the incremental
        map is rebuilt wholesale — O(n), same order as the event itself.
        """
        from ..core.job import Placement

        out: dict[JobId, Placement] = {}
        for mi, sub in enumerate(self.machines):
            for job_id, pl in sub.placements.items():
                out[job_id] = Placement(mi, pl.slot)
        self._placements = out
