"""State-integrity rule family: exception flow.

A strict (non-ratcheted) family built on the interprocedural call
graph (``callgraph.py``), proving the rollback discipline the
runtime's correctness story rests on:

- ``exception-flow`` (EXC001/EXC002) — raise-path analysis over the
  functions reachable inside an open journal scope (a per-request
  journal or an atomic-batch log). EXC001 flags a
  journaled-container mutation that an exception can interrupt
  *before* its journal entry is recorded (the journal-before-mutate
  ordering contract: rollback replays only what was captured). EXC002
  flags an ``except`` handler that tears the journal down (truncate /
  release / commit) without replaying it first — the PR 5
  journal-carry bug shape: an aborted atomic batch whose undo entries
  were dropped instead of applied.

The family runs in the strict gate (``repro lint --strict``): the
live tree must be clean, with per-line suppressions carrying the
rationale anywhere a pattern is provably safe.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from .callgraph import Program, build_program, iter_own_nodes
from .engine import Rule, SourceFile, register
from .hotpath import _PROGRAM_KEY
from .report import Finding
from .rules import (
    ACK_ATTRS,
    ACK_CALLS,
    JOURNAL_CONTRACTS,
    MUTATOR_METHODS,
    JournalContract,
    _class_methods,
    _collect_aliases,
    _is_tracked,
    _iter_mutations,
    _matches_any,
)

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

#: calls that open a journal scope (per-request or atomic batch)
_SCOPE_OPENERS = frozenset({"_journal_acquire", "_batch_begin"})

#: per-container journal acknowledgements for the *ordering* check.
#: ``_journal_acquire`` is deliberately excluded: it opens the scope
#: but records no entry, so it must not satisfy "journaled before
#: mutated" for any container.
_EXC_ACK_CALLS = frozenset(ACK_CALLS - {"_journal_acquire"})

#: handler calls that tear the journal down without applying it
_TEARDOWN_CALLS = frozenset({
    "truncate", "_journal_release", "_release_batch_log",
    "commit_txn", "_batch_commit",
})

#: handler calls that replay/apply the journal (legal teardown prefix)
_REPLAY_CALLS = frozenset({
    "replay_entries", "rollback", "_rollback", "_batch_restore",
    "_batch_abort", "abort_txn",
})


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _opens_scope(fn: ast.AST) -> bool:
    """Does this function open a journal scope in its own body?"""
    for node in iter_own_nodes(fn):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node) in _SCOPE_OPENERS:
            return True
    return False


def _shared_program(files: Sequence[SourceFile],
                    shared: dict[str, object]) -> Program:
    """Reuse the per-run program the hot-path rules build (or build it)."""
    program = shared.get(_PROGRAM_KEY)
    if not isinstance(program, Program):
        program = build_program(files)
        shared[_PROGRAM_KEY] = program
    return program


def _raise_closure(program: Program) -> set[str]:
    """Fixpoint of "can raise": own ``raise`` plus raising callees."""
    can_raise = {
        nid for nid, info in program.functions.items()
        if any(isinstance(n, ast.Raise) for n in iter_own_nodes(info.node))
    }
    changed = True
    while changed:
        changed = False
        for nid, targets in program.edges.items():
            if nid not in can_raise and targets & can_raise:
                can_raise.add(nid)
                changed = True
    return can_raise


def _scope_closure(program: Program) -> set[str]:
    """Functions that run inside an open journal scope.

    Seeds are the scope-opening functions themselves (their remaining
    body runs with the scope open); the closure adds everything they
    transitively call.
    """
    seeds = {
        nid for nid, info in program.functions.items()
        if _opens_scope(info.node)
    }
    in_scope = set(seeds)
    frontier = list(seeds)
    while frontier:
        nid = frontier.pop()
        for target in program.edges.get(nid, ()):
            if target not in in_scope:
                in_scope.add(target)
                frontier.append(target)
    return in_scope


def _ack_lines(method: ast.AST) -> set[int]:
    """Lines where ``method`` records a journal entry.

    A first-touch helper call (``_jdict`` & co, minus the scope-opening
    ``_journal_acquire``) or a mutating call on an ``undo_log`` /
    ``_journal`` / ``_abatch`` receiver (alias-aware: the interval
    mutators bind ``undo_log = self.undo_log`` before appending).
    """
    aliases = _collect_aliases(method, ACK_ATTRS)
    lines: set[int] = set()
    for node in ast.walk(method):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name in _EXC_ACK_CALLS:
            lines.add(node.lineno)
        elif (name in MUTATOR_METHODS
                and isinstance(node.func, ast.Attribute)
                and _is_tracked(node.func.value, ACK_ATTRS, aliases)):
            lines.add(node.lineno)
    return lines


# ---------------------------------------------------------------------------
# exception-flow (EXC001 / EXC002)
# ---------------------------------------------------------------------------

class ExceptionFlowRule(Rule):
    name = "exception-flow"
    description = (
        "inside an open journal scope, mutations must be journaled "
        "before any raise can fire, and except handlers must replay "
        "the journal before tearing it down"
    )
    scopes = ("reservation/", "multimachine/", "core/")

    def __init__(self) -> None:
        self._program: Program | None = None
        self._can_raise: set[str] = set()
        self._in_scope: set[str] = set()

    def prepare(self, files: Sequence[SourceFile],
                shared: dict[str, object]) -> None:
        program = _shared_program(files, shared)
        self._program = program
        self._can_raise = _raise_closure(program)
        self._in_scope = _scope_closure(program)

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        yield from self._check_mutation_ordering(sf)
        yield from self._check_handlers(sf)

    # -- EXC001: journal-before-mutate ordering -------------------------
    def _check_mutation_ordering(self, sf: SourceFile) -> Iterator[Finding]:
        for cls in ast.walk(sf.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            contract = JOURNAL_CONTRACTS.get(cls.name)
            if contract is None:
                continue
            for method in _class_methods(cls):
                if _matches_any(method.name, contract.exempt):
                    continue
                node_id = f"{sf.scope}::{cls.name}.{method.name}"
                if node_id not in self._in_scope:
                    continue
                yield from self._check_method(
                    sf, cls, method, node_id, contract)

    def _check_method(self, sf: SourceFile, cls: ast.ClassDef,
                      method: ast.FunctionDef, node_id: str,
                      contract: JournalContract) -> Iterator[Finding]:
        mutations = list(_iter_mutations(method, contract.attrs))
        if not mutations:
            return
        raise_lines = sorted(self._raise_lines(method, node_id))
        if not raise_lines:
            return
        ack_lines = sorted(_ack_lines(method))
        for mut, desc in mutations:
            line = getattr(mut, "lineno", 0)
            if any(a <= line for a in ack_lines):
                continue  # journaled before (or at) the mutation
            next_ack = min((a for a in ack_lines if a > line), default=None)
            # strictly before the next ack: a raise-capable call on the
            # ack line itself (e.g. the closure factory inside the
            # append) runs with the entry being recorded
            danger = [r for r in raise_lines
                      if r > line and (next_ack is None or r < next_ack)]
            if not danger:
                continue
            yield self.finding(
                sf, mut, "EXC001",
                f"{cls.name}.{method.name} mutates journaled container "
                f"({desc}) inside an open journal scope, and a raise "
                f"reachable at line {danger[0]} can fire before the "
                "journal entry is recorded — rollback would miss this "
                "mutation; capture first (call a _j* first-touch helper "
                "or append the undo entry before mutating)",
                context=f"{cls.name}.{method.name}",
            )

    def _raise_lines(self, method: ast.AST, node_id: str) -> set[int]:
        """Lines in ``method`` where an exception can originate.

        Own ``raise`` statements, plus calls whose name matches a
        call-graph edge target that transitively raises. Unresolved
        receivers (stored callables, builtins) are treated as
        non-raising — precision over recall on the real tree.
        """
        lines = {
            n.lineno for n in iter_own_nodes(method)
            if isinstance(n, ast.Raise)
        }
        program = self._program
        if program is None:  # pragma: no cover - engine always prepares
            return lines
        raising_names = set()
        for target in program.edges.get(node_id, ()):
            if target in self._can_raise:
                qualname = target.split("::", 1)[-1]
                name = qualname.rsplit(".", 1)[-1]
                # builtin-container method names (add/append/pop/...)
                # resolve by name to unrelated classes (SlotIndex.add,
                # RequestSequence.append); a call spelled that way is
                # overwhelmingly a plain dict/set/list mutation, so
                # treat it as non-raising — precision over recall
                if name not in MUTATOR_METHODS:
                    raising_names.add(name)
        if raising_names:
            for node in iter_own_nodes(method):
                if (isinstance(node, ast.Call)
                        and _call_name(node) in raising_names):
                    lines.add(node.lineno)
        return lines

    # -- EXC002: handlers must replay before teardown -------------------
    def _check_handlers(self, sf: SourceFile) -> Iterator[Finding]:
        for fn in ast.walk(sf.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in iter_own_nodes(fn):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                calls = {
                    _call_name(c)
                    for stmt in node.body
                    for c in ast.walk(stmt)
                    if isinstance(c, ast.Call)
                }
                teardown = sorted(calls & _TEARDOWN_CALLS)
                if not teardown or calls & _REPLAY_CALLS:
                    continue
                yield self.finding(
                    sf, node, "EXC002",
                    f"{fn.name} handles an exception by tearing down "
                    f"the journal ({', '.join(teardown)}) without "
                    "replaying it — dropped undo entries leave "
                    "half-applied state (the PR 5 journal-carry bug "
                    "shape); replay/abort before truncating or "
                    "committing",
                    context=fn.name,
                )


# ---------------------------------------------------------------------------

register(ExceptionFlowRule())
