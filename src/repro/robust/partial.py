"""Partial results: quarantine records for gracefully degraded runs.

A multi-item pipeline stage (the scenarios of a study, the per-trace
frame construction, the per-pair combination) run in non-strict mode
quarantines failing items instead of aborting: each failure becomes an
:class:`ItemFailure` record and the surviving items are carried through
as a :class:`PartialResult`.  The CLI maps the three possible outcomes
to distinct exit codes so scripts can tell them apart:

========================  ==========================================
:data:`EXIT_OK` (0)       everything succeeded
:data:`EXIT_TOTAL` (2)    nothing usable was produced (a
                          :class:`~repro.errors.ReproError` escaped)
:data:`EXIT_PARTIAL` (3)  the run completed but quarantined items
========================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro import obs
from repro.obs.log import get_logger

__all__ = [
    "EXIT_OK",
    "EXIT_PARTIAL",
    "EXIT_TOTAL",
    "ItemFailure",
    "PartialResult",
    "quarantine",
]

log = get_logger(__name__)

#: Exit code of a fully successful run.
EXIT_OK = 0

#: Exit code of a total failure (no usable result was produced).
EXIT_TOTAL = 2

#: Exit code of a partial failure (result produced, items quarantined).
EXIT_PARTIAL = 3

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class ItemFailure:
    """One quarantined pipeline item.

    Attributes
    ----------
    item:
        Human-readable name of the failed item (a trace label, a file
        path, a ``"frame[i] -> frame[i+1]"`` pair description).
    stage:
        Pipeline stage that failed (``"load"``, ``"simulate"``,
        ``"validate"``, ``"frame"``, ``"pair"``, ``"window"``).
    error:
        Exception class name.
    message:
        The exception message.
    """

    item: str
    stage: str
    error: str
    message: str

    @classmethod
    def from_exception(cls, item: str, stage: str, exc: BaseException) -> "ItemFailure":
        """Build a failure record from a caught exception."""
        return cls(
            item=str(item),
            stage=stage,
            error=type(exc).__name__,
            message=str(exc),
        )

    def __str__(self) -> str:
        return f"[{self.stage}] {self.item}: {self.error}: {self.message}"


def quarantine(failure: ItemFailure) -> ItemFailure:
    """Record a quarantined item and hand it back.

    Every stage that skips a failing item calls this once per item, so
    ``robust.quarantined_total{stage}`` and the warning log cover each
    quarantine the same way.
    """
    obs.count("robust.quarantined_total", stage=failure.stage)
    log.warning("quarantined %s", failure)
    return failure


@dataclass(frozen=True)
class PartialResult(Generic[T]):
    """A degraded-but-usable result plus the items it had to quarantine.

    Non-strict pipeline entry points (``quick_track(strict=False)``,
    ``Tracker.run(strict=False)``, ``ParametricStudy.run(strict=False)``)
    always return a :class:`PartialResult`; :attr:`failures` is empty
    when nothing went wrong, so ``result.ok`` distinguishes clean from
    degraded runs with one check.

    Attributes
    ----------
    value:
        The result computed from the surviving items.
    failures:
        One record per quarantined item, in pipeline order.
    """

    value: T
    failures: tuple[ItemFailure, ...] = field(default=())

    @classmethod
    def of(cls, outcome: "T | PartialResult[T]") -> "PartialResult[T]":
        """*outcome* as a partial result; a strict run's value has no failures."""
        if isinstance(outcome, PartialResult):
            return outcome
        return cls(value=outcome)

    @property
    def ok(self) -> bool:
        """True when no item was quarantined."""
        return not self.failures

    @property
    def n_quarantined(self) -> int:
        """Number of quarantined items."""
        return len(self.failures)

    @property
    def exit_code(self) -> int:
        """:data:`EXIT_OK` or :data:`EXIT_PARTIAL`."""
        return EXIT_OK if self.ok else EXIT_PARTIAL

    def summary(self) -> str:
        """Multi-line quarantine summary for terminal output."""
        if self.ok:
            return "quarantine: empty (all items succeeded)"
        lines = [
            f"quarantine: {self.n_quarantined} item"
            f"{'' if self.n_quarantined == 1 else 's'} failed"
        ]
        lines.extend(f"  - {failure}" for failure in self.failures)
        return "\n".join(lines)

    def unwrap(self) -> T:
        """Return :attr:`value`; raise if any item was quarantined.

        Raises
        ------
        repro.errors.ReproError
            When at least one item failed, carrying the summary.
        """
        if self.failures:
            from repro.errors import ReproError

            raise ReproError(self.summary())
        return self.value

    def __repr__(self) -> str:
        return (
            f"PartialResult(value={type(self.value).__name__}, "
            f"n_quarantined={self.n_quarantined})"
        )
