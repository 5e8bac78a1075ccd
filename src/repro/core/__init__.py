"""Core model: jobs, windows, requests, schedules, costs, scheduler protocol."""

from .base import ReallocatingScheduler
from .costs import (
    BatchResult,
    CostLedger,
    RequestCost,
    bucket_max_by_n,
    diff_placements,
    merge_ledgers,
)
from .events import Event, EventTracer, NullTracer
from .exceptions import (
    InfeasibleError,
    InvalidRequestError,
    ReproError,
    UnderallocationError,
    ValidationError,
)
from .job import Job, JobId, Placement
from .requests import (
    Batch,
    DeleteJob,
    InsertJob,
    Request,
    RequestSequence,
    delete,
    insert,
    iter_batches,
)
from .schedule import format_schedule, is_feasible_schedule, machine_loads, verify_schedule
from .window import Window, aligned_window_covering, floor_log2, is_power_of_two

__all__ = [
    "ReallocatingScheduler",
    "Batch",
    "BatchResult",
    "CostLedger",
    "RequestCost",
    "bucket_max_by_n",
    "diff_placements",
    "merge_ledgers",
    "Event",
    "EventTracer",
    "NullTracer",
    "InfeasibleError",
    "InvalidRequestError",
    "ReproError",
    "UnderallocationError",
    "ValidationError",
    "Job",
    "JobId",
    "Placement",
    "DeleteJob",
    "InsertJob",
    "Request",
    "RequestSequence",
    "delete",
    "insert",
    "iter_batches",
    "format_schedule",
    "is_feasible_schedule",
    "machine_loads",
    "verify_schedule",
    "Window",
    "aligned_window_covering",
    "floor_log2",
    "is_power_of_two",
]
