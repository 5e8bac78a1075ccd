"""The benchmark's workloads and how each one builds its scheduler stack.

Every workload is a closed loop with one caller: the caller submits the
next step (one request, or one burst on ``burst-flexible``) only after
the scheduler has answered the previous one, as an application that
embeds the scheduler does. Throughput is therefore work completed at
the stated input size, not a served rate.

Nothing here imports ``repro`` at module level: the set-up measurement
re-imports the package from scratch, and the helpers below look the
classes up at call time so they always use the current import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: gamma of every stack and generator (the scenario generators' default)
GAMMA = 8


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a scenario stream and the plan that drives it."""

    name: str
    #: sequence function in ``repro.workloads.scenarios``
    generator: str
    #: its keyword arguments besides ``seed`` and ``num_machines``
    params: dict[str, Any]
    machines: int
    #: keyword arguments of ``repro.sim.session.ExecutionPlan``
    plan: dict[str, Any] = field(default_factory=dict)
    #: take latency percentiles only once the population holds (see
    #: :func:`hold_start`); throughput still covers the whole run
    hold_latency: bool = False

    @property
    def requests(self) -> int:
        """The stated input size: requests generated per run."""
        return self.params["requests"]

    @property
    def batch_size(self) -> int:
        return self.plan.get("batch_size", 1)


WORKLOADS = {
    w.name: w for w in (
        # Storms repeatedly drop n below n*/4, so the n*-trimming layer
        # rebuilds dozens of times; at m=1 delegation does no routing.
        # Rebuild cost and wrapper overhead dominate.
        Workload("churn-storm", "churn_storm_sequence",
                 dict(requests=16_000), 1,
                 dict(backend="sequential", verify="off")),
        # After the ramp the population holds, so trimming is idle;
        # delegation routes and migrates, and the incremental verifier
        # checks every request, as in the CI engine smoke.
        Workload("steady-state-m3", "steady_state_sequence",
                 dict(requests=16_000, target_active=1280), 3,
                 dict(backend="sequential", verify="incremental"),
                 hold_latency=True),
        # The same stack driven as jointly planned write bursts: the
        # flexible size hint skips the ramp's doubling rebuilds, and the
        # verifier checks once per burst. A population that holds keeps
        # the per-request counts steady across seeds; burst-arrivals
        # rebuilds only a few times, early and at random, and a
        # churn-storm stream's flexible rebuilds are rare enough that
        # their count sets realloc_mean. The long stream gives p99
        # about ten bursts beyond it and keeps realloc_mean's spread
        # across seeds below 0.1.
        Workload("burst-flexible", "steady_state_sequence",
                 dict(requests=64_000, target_active=1280), 1,
                 dict(backend="batched", batch_size=64,
                      batch_semantics="flexible", verify="incremental"),
                 hold_latency=True),
    )
}


def generate(workload: Workload, seed: int) -> list:
    """The workload's request list for ``seed`` (deterministic)."""
    from repro.workloads import scenarios

    build = getattr(scenarios, workload.generator)
    return list(build(seed=seed, num_machines=workload.machines,
                      **workload.params))


def hold_start(workload: Workload, requests: list) -> int:
    """Index of the first step once the population is near its hold level.

    A steady-state stream ramps up to its target population and then
    holds it. The ramp's few large trimming rebuilds are one-time
    costs whose number and sizes vary with the seed, so the 0.1% tail
    of a whole run jumps between rebuild sizes from seed to seed; on
    ``churn-storm`` the rebuilds recur all run long and stay in. The
    hold starts where the population first reaches three quarters of
    its peak: the last approach to the target is slow (admission gets
    harder), and at these sizes the ramp's last doubling rebuild comes
    before that point.
    """
    if not workload.hold_latency:
        return 0
    sizes = []
    active = 0
    for request in requests:
        active += 1 if request.kind == "insert" else -1
        sizes.append(active)
    level = max(sizes) * 3 // 4
    first = next(i for i, size in enumerate(sizes) if size >= level)
    return -(-(first + 1) // workload.batch_size)


def build_stack(workload: Workload) -> Any:
    """A fresh Theorem 1 stack: ALIGNED -> delegation -> trimming -> core."""
    from repro.core.api import ReservationScheduler

    return ReservationScheduler(workload.machines, gamma=GAMMA)


def build_plan(workload: Workload, backend: Any = None) -> Any:
    """The workload's ExecutionPlan, optionally with a ready backend."""
    from repro.sim.session import ExecutionPlan

    kwargs = dict(workload.plan)
    if backend is not None:
        kwargs["backend"] = backend
    return ExecutionPlan(**kwargs)


def cut_stacks(workload: Workload) -> dict[str, Any]:
    """The layer cut: the same requests into ever fuller stacks.

    ``core`` is the aligned reservation core, ``trimmed`` adds the
    n*-trimming layer and ``facade`` is the full stack. At m > 1 the
    core and trimmed cuts run one per machine under the delegation
    layer, because a single-machine stack cannot hold an m-machine
    instance.
    """
    from repro.core.api import ReservationScheduler
    from repro.multimachine.delegation import DelegatingScheduler
    from repro.reservation.scheduler import AlignedReservationScheduler
    from repro.reservation.trimming import TrimmedReservationScheduler

    m = workload.machines

    def per_machine(factory: Any) -> Any:
        return factory() if m == 1 else DelegatingScheduler(m, factory)

    return {
        "core": per_machine(AlignedReservationScheduler),
        "trimmed": per_machine(
            lambda: TrimmedReservationScheduler(gamma=GAMMA)),
        "facade": ReservationScheduler(m, gamma=GAMMA),
    }
