"""Digit-sum range structure of the rotation fixed point abcbcacab...

The letter-count vectors of its length-n factors are a fixed translate
family: m copies of every letter plus one of a short list of offset
vectors depending only on n mod 3.  From that family, the attainable
digit sums of any integer re-coding follow by linear algebra, and one
can ask whether they form a gap-free range.  Everything predicted here
is cross-checked against direct window scans.
"""

from __future__ import annotations

import numpy as np

from .complexity import FactorScanner
from .morphisms import FixedPointStream, preset
from .reports import Runs, VerifyReport, record_failure, timed
from .words import Coding, ResourceLimitError, WordDomainError

# Most digit sums one gap census may check; its report lists the missing ones.
CENSUS_CAP = 1 << 24

PREDICTED_OFFSETS: dict[int, tuple[tuple[int, int, int], ...]] = {
    0: ((1, 0, -1), (0, 0, 0), (1, -1, 0), (0, 1, -1), (-1, 1, 0), (-1, 0, 1), (0, -1, 1)),
    1: ((1, 1, -1), (1, -1, 1), (0, 1, 0), (1, 0, 0), (0, 0, 1), (-1, 1, 1)),
    2: ((2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 1, 0), (1, 0, 1)),
}


def sigma3_stream() -> FixedPointStream:
    m, seed = preset("sigma3")
    return FixedPointStream(m, seed)


def predicted_parikh_set(n: int) -> frozenset[tuple[int, int, int]]:
    """Predicted letter-count vectors at length n = 3m + r: m*(1,1,1) + the offsets for r."""
    if n < 3:
        raise WordDomainError("the offset family starts at length 3")
    m, r = divmod(n, 3)
    return frozenset((m + a, m + b, m + c) for a, b, c in PREDICTED_OFFSETS[r])


def predicted_coded_ds_set(values: tuple[int, int, int], n: int) -> frozenset[int]:
    """Digit sums the re-coded factors of length n should attain."""
    x, y, z = values
    return frozenset(a * x + b * y + c * z for a, b, c in predicted_parikh_set(n))


def verify_parikh_prediction(n_to: int, scanner: FactorScanner) -> VerifyReport:
    """Scanned letter-count vectors equal the offset-family prediction, 3 <= n <= n_to."""
    report = VerifyReport("prop4", f"3<=n<={n_to}", max(0, n_to - 2))
    with timed(report):
        scanner.window(n_to)  # the largest first: an oversized range stops here
        for n in range(3, n_to + 1):
            predicted = predicted_parikh_set(n)
            got = scanner.parikh_set(n)
            if got != predicted:
                record_failure(
                    report,
                    f"n={n}: scanned {sorted(got)} != predicted {sorted(predicted)}",
                )
        report.notes.append("distinct-vector counts repeat 7,6,6 with n mod 3 = 0,1,2")
    return report


def check_ivp(stream: FixedPointStream, coding: Coding | None, n_from: int, n_to: int) -> VerifyReport:
    """Which lengths leave holes between the least and greatest digit sum.

    ``coding`` is over the stream's alphabet; None sums the letter
    values.  A length n is gapped when some value strictly between the
    attained minimum and maximum is attained by no factor of that
    length; ``gaps`` holds every such value as the runs between
    consecutive attained sums, so its memory follows the number of
    attained sums, not the spread.  The census stops with
    ResourceLimitError before it would check more than CENSUS_CAP
    values, which bounds the lists the report serializes.
    """
    if n_from < 1 or n_to < n_from:
        raise WordDomainError("need 1 <= n_from <= n_to")
    if coding is None:
        coding = Coding.identity(stream.alphabet)
    sc = FactorScanner(stream, coding)
    values = ",".join(map(str, coding.values))
    report = VerifyReport("ivp", f"coding {values}; {n_from}<=n<={n_to}", 0, gaps={})
    with timed(report):
        sc.window(n_to)  # the largest first: an oversized range stops here
        for n in range(n_from, n_to + 1):
            ds = sc.digit_sum_set(n)
            lo, hi = min(ds), max(ds)
            if report.tuples_checked + hi - lo + 1 > CENSUS_CAP:
                raise ResourceLimitError(
                    f"gap census would check more than {CENSUS_CAP} digit sums by n={n}"
                )
            report.tuples_checked += hi - lo + 1
            if len(ds) < hi - lo + 1:
                # the values missed between consecutive attained sums
                attained = np.sort(np.fromiter(ds, dtype=np.int64, count=len(ds)))
                starts, stops = attained[:-1] + 1, attained[1:]
                holes = starts < stops
                missing = Runs(starts[holes], stops[holes])
                report.gaps[n] = missing
                record_failure(report, f"n={n}: {len(missing)} missing, least {missing.starts[0]}")
    return report


def verify_coding_grid(n_max: int, v_max: int) -> VerifyReport:
    """Sweep strictly increasing codings: gap-free exactly for runs x, x+1, x+2.

    For every coding 0 <= x < y < z <= v_max, scan lengths 3..n_max.
    The scanned digit-sum sets are also compared against the
    offset-family prediction at every length, so the sweep stays
    anchored to an independent route.
    """
    report = VerifyReport("coding-grid", f"0<=x<y<z<={v_max}, 3<=n<={n_max}", 0)
    with timed(report):
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
