"""Digit-sum range structure of the rotation fixed point abcbcacab...

The letter-count vectors of its length-n factors are a fixed translate
family: m copies of every letter plus one of a short list of offset
vectors depending only on n mod 3.  From that family, the attainable
digit sums of any integer re-coding follow by linear algebra, and one
can ask whether they form a gap-free range.  Everything predicted here
is cross-checked against direct window scans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .complexity import FactorScanner
from .morphisms import DEFAULT_LENGTH_CAP, FixedPointStream, preset
from .reports import VerifyReport, record_failure, timed
from .words import Coding, WordDomainError

PREDICTED_OFFSETS: dict[int, tuple[tuple[int, int, int], ...]] = {
    0: ((1, 0, -1), (0, 0, 0), (1, -1, 0), (0, 1, -1), (-1, 1, 0), (-1, 0, 1), (0, -1, 1)),
    1: ((1, 1, -1), (1, -1, 1), (0, 1, 0), (1, 0, 0), (0, 0, 1), (-1, 1, 1)),
    2: ((2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 1, 0), (1, 0, 1)),
}


def sigma3_stream(cap: int = DEFAULT_LENGTH_CAP) -> FixedPointStream:
    m, seed = preset("sigma3")
    return FixedPointStream(m, seed, cap)


@dataclass(frozen=True)
class ParikhSetPrediction:
    """Predicted letter-count vectors at one length: m*(1,1,1) + offsets."""

    m: int
    r: int
    offsets: tuple[tuple[int, int, int], ...]

    @property
    def n(self) -> int:
        return 3 * self.m + self.r

    def vectors(self) -> frozenset[tuple[int, int, int]]:
        return frozenset((self.m + a, self.m + b, self.m + c) for a, b, c in self.offsets)


def predicted_parikh_set(n: int) -> ParikhSetPrediction:
    if n < 3:
        raise WordDomainError("the offset family starts at length 3")
    m, r = divmod(n, 3)
    return ParikhSetPrediction(m, r, PREDICTED_OFFSETS[r])


def predicted_coded_ds_set(values: tuple[int, int, int], n: int) -> frozenset[int]:
    """Digit sums the re-coded factors of length n should attain."""
    pred = predicted_parikh_set(n)
    x, y, z = values
    base = pred.m * (x + y + z)
    return frozenset(base + a * x + b * y + c * z for a, b, c in pred.offsets)


def verify_parikh_prediction(
    n_from: int = 3, n_to: int = 300, scanner: FactorScanner | None = None
) -> VerifyReport:
    """Scanned letter-count vectors equal the offset-family prediction."""
    report = VerifyReport("prop4", f"{n_from}<=n<={n_to}", max(0, n_to - n_from + 1))
    with timed(report):
        sc = scanner if scanner is not None else FactorScanner(sigma3_stream())
        for n in range(n_from, n_to + 1):
            predicted = predicted_parikh_set(n).vectors()
            got = sc.parikh_set(n)
            if got != predicted:
                record_failure(
                    report,
                    f"n={n}: scanned {sorted(got)} != predicted {sorted(predicted)}",
                )
        report.notes.append("distinct-vector counts repeat 7,6,6 with n mod 3 = 0,1,2")
    return report


@dataclass
class IvpReport:
    """Gap census for one coding: missing interior digit sums per length."""

    coding: tuple[int, ...]
    n_from: int
    n_to: int
    gaps: dict[int, list[int]] = field(default_factory=dict)
    tuples_checked: int = 0
    elapsed_ms: float = 0.0

    @property
    def holds(self) -> bool:
        return not self.gaps

    @property
    def failures(self) -> list[str]:
        return [f"n={n}: missing {vals}" for n, vals in sorted(self.gaps.items())]

    def to_dict(self) -> dict:
        return {
            "check": "ivp",
            "coding": list(self.coding),
            "range": f"{self.n_from}<=n<={self.n_to}",
            "tuples_checked": self.tuples_checked,
            "gaps": {str(n): vals for n, vals in sorted(self.gaps.items())},
            "failures": self.failures,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def check_ivp(source, coding, n_from: int = 3, n_to: int = 300) -> IvpReport:
    """Which lengths leave holes between the least and greatest digit sum.

    ``source`` is a stream or a scanner; ``coding`` is a Coding or a
    value tuple over the stream's alphabet.  A length n contributes a
    gap entry when some value strictly between the attained minimum and
    maximum is attained by no factor of that length.
    """
    if n_from < 1 or n_to < n_from:
        raise WordDomainError("need 1 <= n_from <= n_to")
    if isinstance(source, FactorScanner):
        sc = source
        if coding is not None:
            values = tuple(coding.values if isinstance(coding, Coding) else coding)
            # a scanner without an explicit coding sums the letter values
            have = sc.coding.values if sc.coding is not None else sc.alphabet.letters
            if have != values:
                raise WordDomainError("scanner coding does not match the requested one")
    else:
        if not isinstance(coding, Coding):
            coding = Coding(source.alphabet, tuple(coding))
        sc = FactorScanner(source, coding)
    t0 = time.perf_counter()
    rep = IvpReport(
        coding=tuple(sc.coding.values) if sc.coding else tuple(sc.alphabet.letters),
        n_from=n_from,
        n_to=n_to,
    )
    for n in range(n_from, n_to + 1):
        ds = sc.digit_sum_set(n)
        lo, hi = min(ds), max(ds)
        rep.tuples_checked += hi - lo + 1
        if len(ds) < hi - lo + 1:
            # one flag per value of [lo, hi], not one Python int
            absent = np.ones(hi - lo + 1, dtype=bool)
            absent[np.fromiter(ds, dtype=np.int64, count=len(ds)) - lo] = False
            rep.gaps[n] = (np.nonzero(absent)[0] + lo).tolist()
    rep.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return rep


def verify_coding_grid(
    n_max: int = 120, v_max: int = 5, stream: FixedPointStream | None = None
) -> VerifyReport:
    """Sweep strictly increasing codings: gap-free exactly for runs x, x+1, x+2.

    For every coding 0 <= x < y < z <= v_max, scan lengths 3..n_max.
    The scanned digit-sum sets are also compared against the
    offset-family prediction at every length, so the sweep stays
    anchored to an independent route.
    """
    report = VerifyReport("coding-grid", f"0<=x<y<z<={v_max}, 3<=n<={n_max}", 0)
    with timed(report):
        if stream is None:
            stream = sigma3_stream()
        checked = 0
        for x in range(v_max + 1):
            for y in range(x + 1, v_max + 1):
                for z in range(y + 1, v_max + 1):
                    values = (x, y, z)
                    sc = FactorScanner(stream, Coding(stream.alphabet, values))
                    gap_free = True
                    for n in range(3, n_max + 1):
                        checked += 1
                        ds = sc.digit_sum_set(n)
                        if ds != predicted_coded_ds_set(values, n):
                            record_failure(
                                report, f"coding {values}, n={n}: scan disagrees with prediction"
                            )
                        if set(range(min(ds), max(ds) + 1)) != ds:
                            gap_free = False
                    expected_gap_free = (y - x, z - y) == (1, 1)
                    if gap_free != expected_gap_free:
                        record_failure(
                            report,
                            f"coding {values}: gap-free={gap_free}, expected {expected_gap_free}",
                        )
        report.tuples_checked = checked
    return report
