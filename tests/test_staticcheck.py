"""Self-tests for the contract linter (``repro lint``).

Each rule family gets known-good and known-bad fixture sources pushed
through :func:`repro.analysis.staticcheck.analyze_source` — the same
code path real files take, with a *virtual* scope so a fixture can
impersonate ``reservation/interval.py`` without touching the tree. The
suite closes with the gate itself: the live ``src/repro`` tree must
lint clean, and the determinism fixes this linter forced stay pinned by
a hash-seed differential run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.staticcheck import (
    DEFAULT_BASELINE,
    DEFAULT_ROOT,
    RULES_VERSION,
    analyze_paths,
    analyze_source,
    check_ratchet,
    load_baseline,
    main,
    registered_rules,
    resolve_rules,
    scope_of,
    write_baseline,
)

CONTRACT_RULES = {
    "journal-coverage", "determinism", "rollback-safety",
    "typing-coverage",
}
HOT_RULES = {
    "hot-closures", "hot-comprehensions", "hot-attr-chains",
    "hot-complexity", "hot-allocations",
}
STATEFLOW_RULES = {"exception-flow"}
STRICT_RULES = CONTRACT_RULES | STATEFLOW_RULES

RESERVATION = "reservation/fixture.py"


def run(source: str, scope: str = RESERVATION, only: str | None = None):
    """Analyze a fixture; ``only`` restricts to one rule family so a
    fixture exercising e.g. journal-coverage isn't also held to the
    typing-coverage bar."""
    rules = resolve_rules([only]) if only else None
    return analyze_source(textwrap.dedent(source), scope, rules=rules)


def codes(report) -> list[str]:
    return [f.code for f in report.findings]


# ---------------------------------------------------------------------------
# engine: suppressions, skip-file, scoping, registry
# ---------------------------------------------------------------------------

class TestEngine:
    def test_registry_has_all_ten_families(self):
        assert set(registered_rules()) == STRICT_RULES | HOT_RULES

    def test_hot_rules_are_ratcheted_and_strict_rules_are_not(self):
        registry = registered_rules()
        assert {n for n, r in registry.items() if r.ratcheted} == HOT_RULES

    def test_default_rule_set_excludes_ratcheted(self):
        assert {r.name for r in resolve_rules()} == STRICT_RULES
        assert ({r.name for r in resolve_rules(include_ratcheted=True)}
                == STRICT_RULES | HOT_RULES)

    def test_resolve_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            resolve_rules(["no-such-rule"])

    def test_select_narrows_the_resolved_set(self):
        assert ({r.name for r in resolve_rules(select=["exception-flow"])}
                == STATEFLOW_RULES)
        assert ({r.name for r in
                 resolve_rules(select=["exception-flow", "determinism"])}
                == {"exception-flow", "determinism"})

    def test_select_unknown_name_raises(self):
        with pytest.raises(KeyError):
            resolve_rules(select=["no-such-rule"])

    def test_select_composes_with_ratcheted_resolution(self):
        rules = resolve_rules(include_ratcheted=True,
                              select=["hot-closures", "determinism"])
        assert {r.name for r in rules} == {"hot-closures", "determinism"}

    def test_scope_of_strips_to_repro_package(self):
        p = Path("src/repro/reservation/interval.py")
        assert scope_of(p) == "reservation/interval.py"
        assert scope_of(Path("elsewhere/thing.py")) == "thing.py"

    def test_scoped_rule_skips_other_packages(self):
        bad = """
        def f():
            for x in {1, 2, 3}:
                pass
        """
        # determinism is scoped to the equivalence path...
        assert "DET001" in codes(run(bad, "reservation/x.py"))
        # ...and does not fire elsewhere (alignment/ is not scoped)
        assert "DET001" not in codes(run(bad, "alignment/x.py"))

    def test_named_suppression_and_counting(self):
        src = """
        def f(s: set) -> None:
            for x in s.union(s):  # staticcheck: ignore[determinism]
                pass
        """
        report = run(src)
        assert report.findings == []
        assert report.suppressed == 1

    def test_bare_suppression_silences_all_rules(self):
        src = """
        def f(s: set) -> None:
            for x in s.union(s):  # staticcheck: ignore
                pass
        """
        assert run(src).findings == []

    def test_suppression_for_other_rule_does_not_apply(self):
        src = """
        def f(s: set) -> None:
            for x in s.union(s):  # staticcheck: ignore[journal-coverage]
                pass
        """
        assert "DET001" in codes(run(src))

    def test_skip_file_pragma(self):
        src = """
        # staticcheck: skip-file
        def f(s: set) -> None:
            for x in s.union(s):
                pass
        """
        report = run(src)
        assert report.findings == []
        assert report.files_checked == 1


# ---------------------------------------------------------------------------
# journal-coverage (JRN001)
# ---------------------------------------------------------------------------

class TestJournalCoverage:
    def test_unjournaled_mutation_is_flagged(self):
        src = """
        class Interval:
            def evict(self, window) -> None:
                self.assigned.pop(window, None)
        """
        assert codes(run(src, only="journal-coverage")) == ["JRN001"]

    def test_mutation_with_undo_log_append_passes(self):
        src = """
        class Interval:
            def evict(self, window) -> None:
                self.undo_log.append((0, self, window))
                self.assigned.pop(window, None)
        """
        assert codes(run(src, only="journal-coverage")) == []

    def test_mutation_with_first_touch_helper_passes(self):
        src = """
        class AlignedReservationScheduler:
            def move(self, slot, job) -> None:
                self._jdict(self.slot_job, slot)
                self.slot_job[slot] = job
        """
        assert codes(run(src, only="journal-coverage")) == []

    def test_undo_methods_are_exempt(self):
        src = """
        class Interval:
            def _undo_assign(self, window, slot) -> None:
                self.assigned[window].discard(slot)
        """
        assert codes(run(src, only="journal-coverage")) == []

    def test_mutation_through_alias_is_caught(self):
        src = """
        class Interval:
            def evict(self, window, slot) -> None:
                have = self.assigned.get(window)
                have.discard(slot)
        """
        assert codes(run(src, only="journal-coverage")) == ["JRN001"]

    def test_uncontracted_class_is_ignored(self):
        src = """
        class ScratchBuffer:
            def evict(self, window) -> None:
                self.assigned.pop(window, None)
        """
        assert codes(run(src, only="journal-coverage")) == []

    def test_delegation_placements_need_touch_log(self):
        src = """
        class DelegatingScheduler:
            def _sync(self, job_id, pl) -> None:
                self._placements[job_id] = pl
        """
        report = run(src, "multimachine/fixture.py", only="journal-coverage")
        assert codes(report) == ["JRN001"]

    def test_delegation_placements_with_log_touch_pass(self):
        src = """
        class DelegatingScheduler:
            def _sync(self, job_id, pl) -> None:
                self._log_touch(job_id)
                self._placements[job_id] = pl
        """
        assert codes(run(src, "multimachine/fixture.py", only="journal-coverage")) == []


# ---------------------------------------------------------------------------
# determinism (DET001 / DET002)
# ---------------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("it", [
        "self.jobs",
        "iv.assigned.get(w, ())",
        "iv.assigned[w]",
        "set(a) | set(b)",
        "a.union(b)",
        "{x for x in y}",
    ])
    def test_set_like_iteration_is_flagged(self, it):
        src = f"""
        def f(self, iv, w, a, b, y) -> None:
            for x in {it}:
                pass
        """
        assert "DET001" in codes(run(src, only="determinism"))

    def test_sorted_wrap_passes(self):
        src = """
        def f(self, iv, w) -> None:
            for x in sorted(iv.assigned.get(w, ())):
                pass
        """
        assert codes(run(src, only="determinism")) == []

    def test_comprehension_iterating_set_is_flagged(self):
        src = """
        def f(self) -> list:
            return [x for x in self.jobs]
        """
        assert "DET001" in codes(run(src, only="determinism"))

    def test_plain_list_iteration_passes(self):
        src = """
        def f(self, items: list) -> None:
            for x in items:
                pass
        """
        assert codes(run(src, only="determinism")) == []

    def test_id_keyed_sort_is_flagged(self):
        src = """
        def f(self, items: list) -> list:
            return sorted(items, key=id)
        """
        assert codes(run(src, only="determinism")) == ["DET002"]

    def test_id_call_in_key_lambda_is_flagged(self):
        src = """
        def f(self, items: list) -> None:
            items.sort(key=lambda x: id(x))
        """
        assert codes(run(src, only="determinism")) == ["DET002"]

    def test_stable_key_passes(self):
        src = """
        def f(self, items: list) -> list:
            return sorted(items, key=str)
        """
        assert codes(run(src, only="determinism")) == []


# ---------------------------------------------------------------------------
# rollback-safety (RBK001)
# ---------------------------------------------------------------------------

class TestRollbackSafety:
    def test_swallowed_broad_except_on_request_path_is_flagged(self):
        src = """
        def apply_batch(self, batch) -> None:
            try:
                self._run(batch)
            except Exception:
                pass
        """
        assert codes(run(src, only="rollback-safety")) == ["RBK001"]

    def test_bare_except_is_flagged(self):
        src = """
        def _batch_commit(self) -> None:
            try:
                self._run()
            except:
                return
        """
        assert codes(run(src, only="rollback-safety")) == ["RBK001"]

    def test_reraising_handler_passes(self):
        src = """
        def apply_batch(self, batch) -> None:
            try:
                self._run(batch)
            except Exception:
                self._rollback()
                raise
        """
        assert codes(run(src, only="rollback-safety")) == []

    def test_narrow_handler_passes(self):
        src = """
        def apply_batch(self, batch) -> None:
            try:
                self._run(batch)
            except KeyError:
                pass
        """
        assert codes(run(src, only="rollback-safety")) == []

    def test_non_request_path_function_is_not_checked(self):
        src = """
        def _describe_failure(self) -> str:
            try:
                return self._detail()
            except Exception:
                return "?"
        """
        assert codes(run(src, only="rollback-safety")) == []


# ---------------------------------------------------------------------------
# typing-coverage (TYP001 / TYP002)
# ---------------------------------------------------------------------------

class TestTypingCoverage:
    def test_missing_annotations_are_flagged(self):
        src = """
        def f(a, b):
            return a + b
        """
        report = run(src, "core/fixture.py", only="typing-coverage")
        assert codes(report) == ["TYP001", "TYP002"]
        assert "a, b" in report.findings[0].message

    def test_fully_annotated_passes(self):
        src = """
        def f(a: int, b: int = 0, *rest: int, **kw: int) -> int:
            return a + b
        """
        assert codes(run(src, "core/fixture.py", only="typing-coverage")) == []

    def test_self_and_cls_are_exempt(self):
        src = """
        class C:
            def m(self, x: int) -> int:
                return x

            @classmethod
            def n(cls) -> None:
                pass
        """
        assert codes(run(src, "core/fixture.py", only="typing-coverage")) == []

    def test_unannotated_vararg_is_flagged(self):
        src = """
        def f(*args) -> None:
            pass
        """
        assert codes(run(src, "core/fixture.py", only="typing-coverage")) == ["TYP001"]

    def test_nested_closures_are_not_checked(self):
        src = """
        def outer(x: int) -> None:
            def inner(y):
                return y
        """
        assert codes(run(src, "core/fixture.py", only="typing-coverage")) == []

    def test_untyped_package_is_out_of_scope(self):
        src = """
        def f(a, b):
            return a + b
        """
        assert codes(run(src, "adversaries/fixture.py", only="typing-coverage")) == []


# ---------------------------------------------------------------------------
# exception-flow (EXC001 / EXC002)
# ---------------------------------------------------------------------------
#
# Fixtures are one-file programs: the journal scope seeds from calls
# declared *in the fixture* (``_journal_acquire``/``_batch_begin``),
# and raise-paths propagate interprocedurally through the
# fixture's own call graph.

class TestExceptionFlow:
    def test_mutation_then_raise_before_ack_is_flagged(self):
        src = """
        class Interval:
            def insert(self, window) -> None:
                self._journal_acquire()
                self.dynamic_res[window] = 1
                self._check(window)
                self._jdict(self.dynamic_res, window)

            def _check(self, window) -> None:
                if window is None:
                    raise ValueError("bad window")
        """
        report = run(src, only="exception-flow")
        assert codes(report) == ["EXC001"]
        assert report.findings[0].context == "Interval.insert"

    def test_ack_before_mutation_passes(self):
        src = """
        class Interval:
            def insert(self, window) -> None:
                self._journal_acquire()
                self._jdict(self.dynamic_res, window)
                self.dynamic_res[window] = 1
                self._check(window)

            def _check(self, window) -> None:
                if window is None:
                    raise ValueError("bad window")
        """
        assert codes(run(src, only="exception-flow")) == []

    def test_code_outside_journal_scope_is_not_checked(self):
        src = """
        class Interval:
            def offline_rebuild(self, window) -> None:
                self.dynamic_res[window] = 1
                self._check(window)

            def _check(self, window) -> None:
                if window is None:
                    raise ValueError("bad window")
        """
        # no function opens a journal/batch scope, so the ordering
        # requirement does not apply (rebuilds journal nothing)
        assert codes(run(src, only="exception-flow")) == []

    def test_direct_raise_after_mutation_is_flagged(self):
        src = """
        class AlignedReservationScheduler:
            def _apply_insert(self, job, level) -> None:
                self._journal_acquire()
                self._job_levels[job] = level
                if level < 0:
                    raise ValueError("negative level")
                self._jdict(self._job_levels, job)
        """
        assert codes(run(src, only="exception-flow")) == ["EXC001"]

    def test_handler_truncating_without_replay_is_flagged(self):
        # the PR 5 journal-carry shape: an except arm that acks/clears
        # the journal while the failed suffix was never replayed
        src = """
        class AlignedReservationScheduler:
            def apply(self, req) -> None:
                try:
                    self._do(req)
                except ValueError:
                    self.undo_log.truncate()
        """
        report = run(src, only="exception-flow")
        assert codes(report) == ["EXC002"]
        assert report.findings[0].context == "apply"

    def test_handler_replaying_before_teardown_passes(self):
        src = """
        class AlignedReservationScheduler:
            def apply(self, req) -> None:
                try:
                    self._do(req)
                except ValueError:
                    self._rollback()
                    self.undo_log.truncate()
                    raise
        """
        assert codes(run(src, only="exception-flow")) == []


# ---------------------------------------------------------------------------
# interprocedural hot-path rules (HOT001-003, CPLX001, ALLOC001)
# ---------------------------------------------------------------------------
#
# Fixtures are one-file programs: hot propagation seeds from entry-point
# names declared *in the fixture* (``insert``/``apply``/...), so each
# fixture carries its own hot caller reaching the code under test.

class TestHotPathRules:
    def test_closure_in_hot_callee_is_flagged(self):
        src = """
        class S:
            def insert(self, job):
                return self._helper(job)

            def _helper(self, job):
                cb = lambda x: x + 1
                return cb(job)
        """
        report = run(src, only="hot-closures")
        assert codes(report) == ["HOT001"]
        assert "[hot via insert]" in report.findings[0].message
        assert report.findings[0].context == "S._helper"

    def test_closure_in_cold_function_passes(self):
        src = """
        class S:
            def summarize(self, job):
                cb = lambda x: x + 1
                return cb(job)
        """
        assert codes(run(src, only="hot-closures")) == []

    def test_closure_in_exempt_undo_helper_passes(self):
        src = """
        class S:
            def insert(self, job):
                return self._undo_move(job)

            def _undo_move(self, job):
                cb = lambda x: x + 1
                return cb(job)
        """
        assert codes(run(src, only="hot-closures")) == []

    def test_comprehension_in_hot_loop_is_flagged(self):
        src = """
        class S:
            def apply(self, reqs):
                for r in reqs:
                    xs = [x + 1 for x in r]
                return xs
        """
        assert codes(run(src, only="hot-comprehensions")) == ["HOT002"]

    def test_comprehension_outside_loop_passes(self):
        src = """
        class S:
            def apply(self, reqs):
                return [x + 1 for x in reqs]
        """
        assert codes(run(src, only="hot-comprehensions")) == []

    def test_attr_chain_in_hot_loop_is_flagged(self):
        src = """
        class S:
            def insert(self, jobs):
                for j in jobs:
                    self.policy.index.add(j)
        """
        report = run(src, only="hot-attr-chains")
        assert codes(report) == ["HOT003"]
        assert "self.policy.index.add" in report.findings[0].message

    def test_attr_chain_bound_to_local_passes(self):
        src = """
        class S:
            def insert(self, jobs):
                add = self.policy.index.add
                for j in jobs:
                    add(j)
        """
        assert codes(run(src, only="hot-attr-chains")) == []

    def test_attr_chain_with_rebound_base_passes(self):
        src = """
        class S:
            def insert(self, jobs):
                for ws in jobs:
                    ws.backed.index.add(ws)
        """
        # `ws` is the loop target: the chain is not loop-invariant
        assert codes(run(src, only="hot-attr-chains")) == []

    def test_journaled_map_scan_is_flagged(self):
        src = """
        class S:
            def insert(self, job):
                for jid in self.placements:
                    if jid == job:
                        return True
                return False
        """
        assert codes(run(src, only="hot-complexity")) == ["CPLX001"]

    def test_journaled_map_scan_via_items_is_flagged(self):
        src = """
        class S:
            def delete(self, job):
                return sorted(self.slot_job.items())
        """
        assert codes(run(src, only="hot-complexity")) == ["CPLX001"]

    def test_unjournaled_map_scan_passes(self):
        src = """
        class S:
            def insert(self, job):
                for jid in self.scratch:
                    pass
        """
        assert codes(run(src, only="hot-complexity")) == []

    def test_allocation_in_innermost_hot_loop_is_flagged(self):
        src = """
        class S:
            def apply(self, reqs):
                for r in reqs:
                    tmp = []
                    tmp.append(r)
        """
        assert codes(run(src, only="hot-allocations")) == ["ALLOC001"]

    def test_allocation_in_outer_loop_passes(self):
        src = """
        class S:
            def apply(self, reqs):
                for r in reqs:
                    tmp = []
                    for x in r:
                        tmp.append(x)
        """
        # the outer loop is not innermost; the inner loop allocates nothing
        assert codes(run(src, only="hot-allocations")) == []

    def test_hot_findings_respect_suppressions(self):
        src = """
        class S:
            def insert(self, jobs):
                for j in jobs:
                    self.policy.index.add(j)  # staticcheck: ignore[hot-attr-chains]
        """
        report = run(src, only="hot-attr-chains")
        assert report.findings == []
        assert report.suppressed == 1

    def test_hotness_propagates_through_delegation(self):
        src = """
        class Outer:
            def apply(self, req):
                return self.inner.handle(req)

        class Inner:
            def handle(self, req):
                cb = lambda: req
                return cb()
        """
        # unknown-receiver call resolves by name to Inner.handle
        assert codes(run(src, only="hot-closures")) == ["HOT001"]


# ---------------------------------------------------------------------------
# ratchet baseline
# ---------------------------------------------------------------------------

HOT_FIXTURE = """
class S:
    def insert(self, jobs):
        for j in jobs:
            self.policy.index.add(j)
"""


def hot_report(source: str = HOT_FIXTURE):
    rules = [r for r in resolve_rules(include_ratcheted=True) if r.ratcheted]
    return analyze_source(textwrap.dedent(source), RESERVATION, rules=rules)


class TestRatchet:
    def test_roundtrip_is_clean(self, tmp_path):
        report = hot_report()
        path = tmp_path / "baseline.json"
        write_baseline(report, path)
        result = check_ratchet(hot_report(), path)
        assert result.ok, result.to_text()

    def test_baseline_payload_shape(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(hot_report(), path)
        payload = load_baseline(path)
        assert payload["rules_version"] == RULES_VERSION
        assert payload["rules"] == sorted(HOT_RULES)
        assert payload["findings"] == {
            "reservation/fixture.py::HOT003::S.insert": 1,
        }

    def test_new_finding_fails(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(hot_report("class S:\n    pass\n"), path)
        result = check_ratchet(hot_report(), path)
        assert not result.ok
        assert result.new == ["reservation/fixture.py::HOT003::S.insert"]
        assert result.stale == []

    def test_fixed_finding_goes_stale_loose(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(hot_report(), path)
        result = check_ratchet(hot_report("class S:\n    pass\n"), path)
        assert not result.ok
        assert result.stale == ["reservation/fixture.py::HOT003::S.insert"]
        assert result.new == []

    def test_counts_track_new_fixed_unchanged(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(hot_report(), path)
        clean = check_ratchet(hot_report(), path)
        assert clean.to_dict()["counts"] == {
            "new": 0, "fixed": 0, "unchanged": 1}
        assert "unchanged=1" in clean.to_text()
        fixed = check_ratchet(hot_report("class S:\n    pass\n"), path)
        assert fixed.to_dict()["counts"] == {
            "new": 0, "fixed": 1, "unchanged": 0}
        assert "fixed=1" in fixed.to_text()
        write_baseline(hot_report("class S:\n    pass\n"), path)
        regressed = check_ratchet(hot_report(), path)
        assert regressed.to_dict()["counts"] == {
            "new": 1, "fixed": 0, "unchanged": 0}
        assert "new=1" in regressed.to_text()

    def test_fingerprints_survive_line_moves(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(hot_report(), path)
        shifted = "# a new leading comment\n\n" + HOT_FIXTURE
        result = check_ratchet(hot_report(shifted), path)
        assert result.ok, result.to_text()

    def test_missing_baseline_is_invalid(self, tmp_path):
        result = check_ratchet(hot_report(), tmp_path / "absent.json")
        assert not result.ok
        assert "no baseline" in result.invalid

    def test_version_mismatch_is_invalid(self, tmp_path):
        path = tmp_path / "baseline.json"
        payload = write_baseline(hot_report(), path)
        payload["rules_version"] = "0.1"
        path.write_text(json.dumps(payload))
        result = check_ratchet(hot_report(), path)
        assert not result.ok
        assert "rules_version" in result.invalid

    def test_rule_set_mismatch_is_invalid(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(hot_report(), path)
        report = analyze_source(
            textwrap.dedent(HOT_FIXTURE), RESERVATION,
            rules=resolve_rules(["hot-closures"]))
        result = check_ratchet(report, path)
        assert not result.ok
        assert "rule" in result.invalid


class TestRatchetCli:
    def fixture_tree(self, tmp_path) -> Path:
        root = tmp_path / "repro" / "reservation"
        root.mkdir(parents=True)
        (root / "mod.py").write_text(textwrap.dedent(HOT_FIXTURE))
        return tmp_path / "repro"

    def test_write_then_ratchet_passes(self, tmp_path, capsys):
        tree = self.fixture_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["--write-baseline", "--baseline", str(baseline),
                     str(tree)]) == 0
        assert main(["--ratchet", "--baseline", str(baseline),
                     str(tree)]) == 0
        assert "ratchet ok" in capsys.readouterr().out

    def test_regression_fails_with_new_finding(self, tmp_path, capsys):
        tree = self.fixture_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["--write-baseline", "--baseline", str(baseline),
                     str(tree)]) == 0
        (tree / "reservation" / "worse.py").write_text(textwrap.dedent("""
            class T:
                def delete(self, jobs):
                    for j in jobs:
                        self.ledger.log.append(j)
        """))
        assert main(["--ratchet", "--baseline", str(baseline),
                     str(tree)]) == 1
        assert "NEW finding" in capsys.readouterr().out

    def test_burned_down_debt_fails_stale_loose(self, tmp_path, capsys):
        tree = self.fixture_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["--write-baseline", "--baseline", str(baseline),
                     str(tree)]) == 0
        (tree / "reservation" / "mod.py").write_text("class S:\n    pass\n")
        assert main(["--ratchet", "--baseline", str(baseline),
                     str(tree)]) == 1
        assert "stale-loose" in capsys.readouterr().out

    def test_ratchet_json_embeds_result(self, tmp_path, capsys):
        tree = self.fixture_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        main(["--write-baseline", "--baseline", str(baseline), str(tree)])
        capsys.readouterr()
        assert main(["--ratchet", "--format", "json",
                     "--baseline", str(baseline), str(tree)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratchet"]["ok"] is True
        assert payload["ratchet"]["counts"] == {
            "new": 0, "fixed": 0, "unchanged": 1}
        assert payload["summary"]["rules_version"] == RULES_VERSION


# ---------------------------------------------------------------------------
# CLI and report formats
# ---------------------------------------------------------------------------

class TestCli:
    def test_list_rules_exits_zero(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "journal-coverage" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["--rules", "bogus"]) == 2

    def test_bad_file_fails_and_reports(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "reservation" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(s: set) -> None:\n    for x in s.union(s):\n        pass\n")
        assert main([str(bad)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_json_format_is_structured(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "reservation" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(s: set) -> None:\n    for x in s.union(s):\n        pass\n")
        main(["--format", "json", str(bad)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["rules_version"] == RULES_VERSION
        assert payload["summary"]["files_checked"] == 1
        assert payload["findings"][0]["code"] == "DET001"
        assert payload["findings"][0]["rule"] == "determinism"

    def test_list_rules_marks_ratcheted(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "hot-closures" in out and "(ratcheted)" in out

    def test_select_runs_only_named_families(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "reservation" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(s: set) -> None:\n"
                       "    for x in s.union(s):\n        pass\n")
        # the determinism finding fires under its own family...
        assert main(["--select", "determinism", str(bad)]) == 1
        assert "DET001" in capsys.readouterr().out
        # ...and is invisible when an unrelated family is selected
        assert main(["--select", "exception-flow", str(bad)]) == 0
        capsys.readouterr()

    def test_select_unknown_family_exits_two(self, tmp_path, capsys):
        ok = tmp_path / "repro" / "reservation" / "ok.py"
        ok.parent.mkdir(parents=True)
        ok.write_text("X = 1\n")
        assert main(["--select", "bogus", str(ok)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_repro_cli_exposes_lint(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["lint", "--strict"])
        assert args.strict and args.func.__name__ == "cmd_lint"

    def test_repro_cli_lint_forwards_select(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["lint", "--select", "exception-flow,determinism"])
        assert args.select == "exception-flow,determinism"


# ---------------------------------------------------------------------------
# the gate: the live tree lints clean, and the fixes stay fixed
# ---------------------------------------------------------------------------

class TestLiveTree:
    def test_src_tree_is_clean_strict(self):
        report = analyze_paths([DEFAULT_ROOT])
        assert report.files_checked > 50
        assert [str(f) for f in report.findings] == []
        assert report.ok(strict=True)

    def test_src_tree_is_clean_under_stateflow_select(self):
        rules = resolve_rules(select=sorted(STATEFLOW_RULES))
        report = analyze_paths([DEFAULT_ROOT], rules)
        assert [str(f) for f in report.findings] == []

    def test_src_tree_passes_the_hot_path_ratchet(self):
        """The checked-in baseline exactly matches the live tree.

        Fails in both directions: a new hot-path finding (regression)
        and a baseline entry the tree no longer produces (burned-down
        debt that must be locked in with --write-baseline).
        """
        rules = [r for r in resolve_rules(include_ratcheted=True)
                 if r.ratcheted]
        report = analyze_paths([DEFAULT_ROOT], rules)
        result = check_ratchet(report, DEFAULT_BASELINE)
        assert result.ok, result.to_text()

    def test_hash_seed_differential(self, tmp_path):
        """Placements are identical under different PYTHONHASHSEEDs.

        Job ids are strings, so any surviving set-iteration-order
        dependence on the request path (the DET001 findings this PR
        fixed) shows up as divergent placements between these runs.
        """
        script = tmp_path / "fingerprint.py"
        script.write_text(textwrap.dedent("""
            from repro.core.api import ReservationScheduler
            from repro.workloads import (
                AlignedWorkloadConfig, random_aligned_sequence,
            )

            cfg = AlignedWorkloadConfig(num_requests=120, num_machines=2)
            seq = random_aligned_sequence(cfg, seed=7)
            sched = ReservationScheduler(2, gamma=8)
            for req in seq:
                sched.apply(req)
            for jid in sorted(sched.placements, key=str):
                pl = sched.placements[jid]
                print(jid, pl.machine, pl.slot)
        """))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
        outs = []
        for seed in ("1", "4242"):
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, str(script)], env=env,
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
