#!/usr/bin/env python
"""Sanitized differential smoke: ``python scripts/run_sanitize_smoke.py``.

CI's runtime half of the state-integrity gate. Drives seeded
insert/delete churn through all three drive backends with
``REPRO_SANITIZE=1`` (every journaled container wrapped in a checking
:class:`~repro.analysis.sanitize.SanitizedDict` proxy) and holds the
run to two properties:

1. **Zero reports** — no backend trips
   :class:`~repro.analysis.sanitize.UnjournaledMutationError`, i.e.
   every mutation inside an open journal scope was journaled first.
2. **Zero drift** — each sanitized fingerprint (placements, ledger,
   max-span cache, job table) is bit-identical to a plain-arena
   sequential reference run: the proxies observe, they never steer.

A third, non-vacuity probe deletes a journal ack at runtime (no-op
``_jdict``) and *requires* the sanitizer to raise — a smoke run that
passes because the oracle is dead fails here instead.

Writes a JSON summary (``--out``, default
``benchmarks/results/sanitize_smoke_report.json`` — gitignored) for
the CI artifact. Exit 0 clean, 1 on any divergence, missed report, or
vacuous oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

os.environ.setdefault("REPRO_SANITIZE", "1")

from repro.analysis.sanitize import UnjournaledMutationError  # noqa: E402
from repro.core.api import ReservationScheduler  # noqa: E402
from repro.core.job import Job  # noqa: E402
from repro.core.requests import iter_batches  # noqa: E402
from repro.core.window import Window  # noqa: E402
from repro.reservation import AlignedReservationScheduler  # noqa: E402
from repro.workloads import (  # noqa: E402
    AlignedWorkloadConfig,
    random_aligned_sequence,
)

BACKENDS = ("sequential", "batched", "sharded-serial")

#: (machines, batch_size, seed, delete_fraction) smoke matrix — one
#: single-machine and one delegated case, mirroring the tier-1
#: sanitized-differential test's axes at smoke-sized request counts
CASES = [(1, 16, 0, 0.35), (3, 16, 3, 0.35)]


def churn(requests: int, seed: int, machines: int,
          delete_fraction: float) -> list[Any]:
    cfg = AlignedWorkloadConfig(
        num_requests=requests, num_machines=machines, gamma=8,
        horizon=1 << 11, max_span=1 << 11,
        delete_fraction=delete_fraction,
    )
    return list(random_aligned_sequence(cfg, seed=seed))


def run_backend(seq: list[Any], backend: str, *, machines: int,
                batch_size: int, journal: str) -> tuple[Any, ...]:
    sched = ReservationScheduler(machines, gamma=8, journal=journal)
    if backend == "sequential":
        for r in seq:
            sched.apply(r)
    else:
        for burst in iter_batches(seq, batch_size):
            if backend == "batched":
                result = sched.apply_batch(burst, atomic=True)
            else:
                result = sched.apply_batch_sharded(burst)
            if result.failed:
                raise AssertionError(
                    f"{backend} burst failed: {result.failure}")
    sched.check_balance()
    return (dict(sched.placements), list(sched.ledger.entries),
            sched._max_span_cache, dict(sched.jobs))


def check_nonvacuous() -> bool:
    """The oracle must still bite: a deleted ack must raise."""
    original = AlignedReservationScheduler._jdict
    AlignedReservationScheduler._jdict = (  # type: ignore[method-assign]
        lambda self, d, key: None)
    try:
        sched = ReservationScheduler(1, gamma=8, journal="arena-sanitize")
        for i in range(8):
            sched.insert(Job(f"probe{i}", Window(0, 64)))
    except UnjournaledMutationError:
        return True
    else:
        return False
    finally:
        AlignedReservationScheduler._jdict = original  # type: ignore[method-assign]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=120,
                        help="churn length per case (default: 120)")
    parser.add_argument("--out", type=Path,
                        default=REPO / "benchmarks" / "results"
                        / "sanitize_smoke_report.json",
                        help="JSON summary path for the CI artifact "
                             "(defaults into benchmarks/results/, which is "
                             "gitignored except for committed BENCH_*.json)")
    args = parser.parse_args(argv)

    summary: dict[str, Any] = {
        "sanitize_env": os.environ.get("REPRO_SANITIZE"),
        "requests_per_case": args.requests,
        "cases": [],
        "reports": 0,
        "ok": True,
    }
    for machines, batch_size, seed, delete_fraction in CASES:
        seq = churn(args.requests, seed, machines, delete_fraction)
        case: dict[str, Any] = {
            "machines": machines, "batch_size": batch_size, "seed": seed,
            "backends": {},
        }
        reference = run_backend(seq, "sequential", machines=machines,
                                batch_size=batch_size, journal="arena")
        for backend in BACKENDS:
            try:
                got = run_backend(seq, backend, machines=machines,
                                  batch_size=batch_size,
                                  journal="arena-sanitize")
            except UnjournaledMutationError as exc:
                case["backends"][backend] = f"report: {exc}"
                summary["reports"] += 1
                summary["ok"] = False
                continue
            matched = got == reference
            case["backends"][backend] = "match" if matched else "DIVERGED"
            if not matched:
                summary["ok"] = False
        summary["cases"].append(case)
        print(f"m={machines} batch={batch_size} seed={seed}: "
              + ", ".join(f"{b}={v}" for b, v in case["backends"].items()))

    summary["nonvacuous"] = check_nonvacuous()
    if not summary["nonvacuous"]:
        summary["ok"] = False
        print("FAIL: injected fault not reported — the oracle is vacuous")
    else:
        print("non-vacuity probe: injected fault reported")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2, default=repr) + "\n")
    print(f"summary written to {args.out}")
    if summary["ok"]:
        print("sanitize smoke ok: zero reports, zero drift")
        return 0
    print("sanitize smoke FAILED")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
