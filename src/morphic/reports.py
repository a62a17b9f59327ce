"""Uniform result records for the verification checks."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain


class Runs:
    """Sorted integers held as half-open runs [starts[i], stops[i]).

    ``starts`` and ``stops`` are int64 arrays; the length is the count
    of integers, and iteration yields them in order as Python ints.
    """

    __slots__ = ("starts", "stops", "_len")

    def __init__(self, starts, stops):
        self.starts = starts
        self.stops = stops
        self._len = int((stops - starts).sum())

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return chain.from_iterable(map(range, self.starts.tolist(), self.stops.tolist()))

    def tolist(self) -> list[int]:
        return list(self)


@dataclass
class VerifyReport:
    """Outcome of one check over one range.

    ``failures`` holds human-readable strings, one per offending tuple,
    capped by the producing check; an empty list means the check
    passed.  ``notes`` carries observations that are not failures.
    ``gaps``, set only by the gap census, maps each gapped length to
    its missing digit sums as ``Runs``, two int64 entries per run of
    consecutive missing values, whatever the number of values.
    """

    check: str
    range: str
    tuples_checked: int
    failures: list[str] = field(default_factory=list)
    elapsed_ms: float = 0.0
    notes: list[str] = field(default_factory=list)
    gaps: dict[int, Runs] | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        d = {
            "check": self.check,
            "range": self.range,
            "tuples_checked": self.tuples_checked,
            "failures": list(self.failures),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.notes:
            d["notes"] = list(self.notes)
        if self.gaps is not None:
            d["gaps"] = {str(n): vals.tolist() for n, vals in sorted(self.gaps.items())}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def summary_line(self) -> str:
        status = "ok" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return (
            f"{self.check:24s} {self.range:24s} "
            f"{self.tuples_checked:>10d} tuples  {self.elapsed_ms:9.1f} ms  {status}"
        )


@contextmanager
def timed(report: VerifyReport):
    """Fill report.elapsed_ms from a perf_counter interval."""
    t0 = time.perf_counter()
    try:
        yield report
    finally:
        report.elapsed_ms = (time.perf_counter() - t0) * 1000.0

FAILURE_CAP = 32


def record_failure(report: VerifyReport, message: str) -> None:
    """Append a failure, truncating after FAILURE_CAP entries."""
    if len(report.failures) < FAILURE_CAP:
        report.failures.append(message)
    elif len(report.failures) == FAILURE_CAP:
        report.failures.append("... further failures suppressed")
