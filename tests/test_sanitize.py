"""The runtime journal sanitizer and its pairing with exception-flow.

The state-integrity story has two halves: the static ``exception-flow``
rule proves journal-before-mutation ordering on the AST, and the
``arena-sanitize`` journal mode proves it at runtime with checking
container proxies. This module tests both halves against the *same*
seeded fault — deleting the ``_apply_insert`` journal ack — so neither
oracle can be vacuous: the static rule must flag the mutated source and
the sanitizer must raise on the mutated runtime, while both stay silent
on the clean tree.

It also pins the sanitizer's zero-overhead-of-meaning contract: a full
four-backend differential run under ``REPRO_SANITIZE=1`` must produce
fingerprints bit-identical to the plain arena run (and no reports).
"""

from __future__ import annotations

import inspect

import pytest

import repro.reservation.scheduler as scheduler_module
from repro.analysis.sanitize import (
    SanitizedDict,
    UnjournaledMutationError,
    sanitize_enabled,
)
from repro.analysis.staticcheck import analyze_source, resolve_rules
from repro.core.api import ReservationScheduler
from repro.core.job import Job
from repro.core.requests import DeleteJob, InsertJob
from repro.core.window import Window
from repro.levels.policy import PAPER_POLICY
from repro.multimachine.delegation import DelegatingScheduler
from repro.reservation import AlignedReservationScheduler

from test_backend_differential import (
    BACKENDS,
    drive,
    fingerprint,
    mixed_churn,
    run_backend,
)
from test_journal_arena import (
    DenseCostingScheduler,
    crowd_until_failure,
    replayed,
    stack_fingerprint,
    unpoison,
)

#: the seeded fault site: the `_apply_insert` journal ack for the level
#: map (the identical `_apply_delete` line is the second occurrence)
ACK_NEEDLE = "            self._jdict(self._job_levels, job.id)\n"


def aligned_sanitized() -> AlignedReservationScheduler:
    return AlignedReservationScheduler(PAPER_POLICY, journal="arena-sanitize")


# ---------------------------------------------------------------------------
# seeded fault injection: the same deleted ack, caught by both oracles
# ---------------------------------------------------------------------------

class TestSeededFaultInjection:
    def scheduler_source(self) -> str:
        return inspect.getsource(scheduler_module)

    def exc_findings(self, source: str):
        report = analyze_source(
            source, "reservation/scheduler.py",
            rules=resolve_rules(["exception-flow"]))
        return [(f.code, f.context) for f in report.findings
                if f.code == "EXC001"]

    def test_static_rule_flags_the_deleted_ack(self):
        source = self.scheduler_source()
        assert source.count(ACK_NEEDLE) == 2, (
            "fault-injection needle drifted; update ACK_NEEDLE to the "
            "_apply_insert/_apply_delete _jdict(self._job_levels, ...) line")
        assert self.exc_findings(source) == [], (
            "clean tree must be EXC001-free or the injection test proves "
            "nothing")
        mutated = source.replace(ACK_NEEDLE, "", 1)
        assert self.exc_findings(mutated) == [
            ("EXC001", "AlignedReservationScheduler._apply_insert")]

    @pytest.mark.parametrize("stack", ["aligned", "theorem1-m1", "theorem1-m3"])
    def test_sanitizer_catches_the_same_fault_at_runtime(self, monkeypatch,
                                                         stack):
        monkeypatch.setattr(
            AlignedReservationScheduler, "_jdict",
            lambda self, d, key: None)
        if stack == "aligned":
            sched = aligned_sanitized()
        else:
            machines = 1 if stack == "theorem1-m1" else 3
            sched = ReservationScheduler(machines, gamma=8,
                                         journal="arena-sanitize")
        with pytest.raises(UnjournaledMutationError):
            for i in range(8):  # several inserts: the first journaled
                sched.insert(Job(f"j{i}", Window(0, 64)))  # dict op raises

    def test_without_the_fault_the_same_stacks_run_clean(self):
        for sched in (aligned_sanitized(),
                      ReservationScheduler(1, gamma=8,
                                           journal="arena-sanitize"),
                      ReservationScheduler(3, gamma=8,
                                           journal="arena-sanitize")):
            for i in range(8):
                sched.insert(Job(f"j{i}", Window(0, 64)))
            sched.delete("j3")
            assert "j3" not in sched.placements
            assert len(sched.placements) == 7


# ---------------------------------------------------------------------------
# the sanitize journal mode itself
# ---------------------------------------------------------------------------

class TestSanitizeMode:
    def test_env_switch_upgrades_arena_schedulers(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        sched = ReservationScheduler(3, gamma=8)
        assert sched.journal_impl == "arena-sanitize"
        aligned = AlignedReservationScheduler(PAPER_POLICY)
        assert isinstance(aligned._placements, SanitizedDict)

    def test_env_switch_off_leaves_plain_dicts(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        aligned = AlignedReservationScheduler(PAPER_POLICY)
        assert not isinstance(aligned._placements, SanitizedDict)

    def test_env_switch_reaches_every_layer(self, monkeypatch):
        """Each layer of a trimmed, a deamortized and a facade stack
        reports the representation its inners actually run."""
        from repro.reservation.deamortized import (
            DeamortizedReservationScheduler,
        )
        from repro.reservation.trimming import TrimmedReservationScheduler

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        trimmed = TrimmedReservationScheduler()
        deamortized = DeamortizedReservationScheduler()
        facade = ReservationScheduler(2, gamma=8)
        machines = facade.machine_schedulers()
        layers = [trimmed, trimmed.inner, deamortized, deamortized.active,
                  facade, *machines, *(m.inner for m in machines)]
        assert [s.journal_impl for s in layers] == (
            ["arena-sanitize"] * len(layers))
        assert isinstance(trimmed.inner._placements, SanitizedDict)
        assert isinstance(deamortized.active._placements, SanitizedDict)

    def test_atomic_batches_run_clean_under_sanitize(self):
        sched = ReservationScheduler(3, gamma=8, journal="arena-sanitize")
        result = sched.apply_batch(
            [InsertJob(Job(f"a{i}", Window(0, 64))) for i in range(10)],
            atomic=True)
        assert not result.failed
        result = sched.apply_batch(
            [DeleteJob("a1"), InsertJob(Job("b", Window(0, 64))),
             DeleteJob("a7")],
            atomic=True)
        assert not result.failed
        assert len(sched.placements) == 9

    def test_direct_unjournaled_poke_is_reported(self):
        sched = aligned_sanitized()
        sched.insert(Job("j0", Window(0, 64)))
        sched._journal_acquire()
        try:
            with pytest.raises(UnjournaledMutationError):
                sched._placements["j0"] = None
        finally:
            sched._journal_release()

    def test_mutation_outside_any_scope_is_legal(self):
        sched = aligned_sanitized()
        sched.insert(Job("j0", Window(0, 64)))
        # no open request or batch scope: rollback cannot be wrong here
        sched._placements.pop("j0")
        sched._placements["j0"] = None


# ---------------------------------------------------------------------------
# differential: four backends under the sanitizer, zero reports,
# fingerprints identical to the plain arena run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("machines,batch_size,seed", [(1, 16, 0), (3, 16, 3)])
def test_sanitized_differential_matches_plain_arena(monkeypatch, machines,
                                                    batch_size, seed):
    seq = mixed_churn(160, seed, machines, 0.35)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    reference = run_backend(seq, "sequential", machines=machines,
                            batch_size=batch_size, atomic=True)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    for backend in BACKENDS:
        got = run_backend(seq, backend, machines=machines,
                          batch_size=batch_size, atomic=True)
        assert got == reference, (
            f"sanitized {backend} diverged from the plain arena run")


@pytest.mark.parametrize("machines,batch_size,seed", [(1, 16, 0), (3, 16, 3)])
def test_sanitized_differential_diet_off_matches(monkeypatch, machines,
                                                 batch_size, seed):
    """Dense-costing schedulers (no live touched log, so every placement
    mutation journals one ``OP_PLACE`` / ``OP_UNPLACE`` fold entry) run
    clean under the sanitizer, stay bit-identical to the plain
    touched-log run, and roll a failing insert back to a replay — the
    sanitizer accepts both the journaled and the touched-log-covered
    placement protocols."""
    seq = mixed_churn(160, seed, machines, 0.35)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = DelegatingScheduler(machines, AlignedReservationScheduler)
    drive(plain, seq, "sequential", batch_size=batch_size, atomic=True)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    dense = DelegatingScheduler(machines, DenseCostingScheduler)
    drive(dense, seq, "sequential", batch_size=batch_size, atomic=True)
    assert fingerprint(dense) == fingerprint(plain), (
        "sanitized dense-costing run diverged from the plain run")
    subs = list(zip(dense.machines, plain.machines))
    assert all(d.journal_impl == "arena-sanitize" for d, _ in subs)
    # the fold journals placement mutations the touched log covers
    assert all(d.journal_entries_total > p.journal_entries_total
               for d, p in subs)
    sched = DenseCostingScheduler()
    crowd, _ = crowd_until_failure(sched, seed)
    assert sched.poisoned
    unpoison(sched)
    reference = replayed(DenseCostingScheduler, crowd)
    assert stack_fingerprint(sched) == stack_fingerprint(reference)
