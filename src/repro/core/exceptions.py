"""Exception hierarchy for the ``repro`` scheduling library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors.
The two interesting leaves are :class:`InfeasibleError` (the request
sequence itself admits no feasible schedule) and
:class:`UnderallocationError` (the instance is feasible but violates the
slack assumption a particular scheduler requires — e.g. the reservation
scheduler of Section 4 needs the instance to be 8-underallocated after
alignment).
"""

from __future__ import annotations

from .window import Window


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidRequestError(ReproError):
    """A request is malformed or inconsistent with the current state.

    Examples: inserting a job id that is already active, deleting an
    unknown job id, a window with ``deadline <= release``, or a
    non-positive job size.
    """


class InfeasibleError(ReproError):
    """No feasible schedule exists for the current active job set.

    Raised by schedulers when they can prove infeasibility (e.g. a
    window ``W`` already contains ``m * |W|`` jobs whose windows nest
    inside ``W``), and by the offline feasibility checker.
    """


class UnderallocationError(ReproError):
    """The instance violates a scheduler's required slack (underallocation).

    The reservation scheduler of the paper assumes the instance is
    gamma-underallocated for a sufficiently large constant gamma; if a
    reservation or placement cannot be satisfied, the assumption was
    violated. The instance may still be *feasible* — use an exact
    scheduler (EDF rebuild, matching) for such instances.
    """

    def __init__(self, message: str, *, level: int | None = None,
                 window: Window | None = None,
                 detail: str | None = None) -> None:
        super().__init__(message)
        self.level = level
        self.window = window
        self.detail = detail


class ValidationError(ReproError):
    """An internal invariant check failed (see ``reservation.validation``).

    This always indicates a bug in the library, never bad user input;
    it exists so the test suite and the simulation driver can run the
    schedulers with continuous self-checking.
    """
