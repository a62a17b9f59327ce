"""Self-similarity of the additive complexity of the doubling fixed point.

The sequence n -> (number of digit sums attained at length n) satisfies
a two-scale recurrence, and every arithmetic subsequence indexed by
2^e n + c is the base sequence shifted by the constant 2e.  Both facts
are checked against window scans; the closed form 2*floor(log2 n) + 3
is only trusted after being cross-checked against the scans.
"""

from __future__ import annotations

from .complexity import FactorScanner
from .reports import VerifyReport, record_failure, timed
from .words import ResourceLimitError, WordDomainError

# Largest power e of the swept subsequences a(2^e n + c).
KERNEL_E_MAX = 6
# Longest kernel sample: 127 subsequences of 2^17 terms are about 16.6M tuples.
KERNEL_T_MAX = 1 << 17
# The closed form is cross-checked against window scans on 1..CROSS_CHECK_N.
CROSS_CHECK_N = 512


def additive_complexity_closed_form(n: int) -> int:
    """2 * floor(log2 n) + 3, the scanned count's closed form."""
    if n < 1:
        raise WordDomainError("defined for n >= 1")
    return 2 * (n.bit_length() - 1) + 3


def verify_additive_recurrence(n_max: int, scanner: FactorScanner) -> VerifyReport:
    """Scanned counts satisfy a(1) = 3 and a(2n) = a(2n+1) = a(n) + 2."""
    report = VerifyReport("additive-recurrence", f"1<=n<={n_max}", 1 + 2 * n_max)
    with timed(report):
        scanner.window(2 * n_max + 1)  # the largest first: an oversized range stops here
        a = scanner.additive_complexity
        if a(1) != 3:
            record_failure(report, f"a(1) = {a(1)}, expected 3")
        for n in range(1, n_max + 1):
            if a(2 * n) != a(n) + 2:
                record_failure(report, f"n={n}: a({2 * n}) = {a(2 * n)}, expected a({n}) + 2 = {a(n) + 2}")
            if a(2 * n + 1) != a(n) + 2:
                record_failure(report, f"n={n}: a({2 * n + 1}) = {a(2 * n + 1)}, expected a({n}) + 2 = {a(n) + 2}")
    return report


def verify_kernel_affine(T: int, scanner: FactorScanner) -> VerifyReport:
    """Every subsequence a(2^e n + c), e <= KERNEL_E_MAX, equals a(n) + 2e, term by term.

    The sweep runs on the closed form, which is first cross-checked
    against window scans on 1..CROSS_CHECK_N, so it never rests on the
    formula alone.  A sample longer than KERNEL_T_MAX is refused before
    the cross-check.
    """
    if T > KERNEL_T_MAX:
        raise ResourceLimitError(f"kernel sample length {T} exceeds the cap of {KERNEL_T_MAX}")
    elements = sum(1 << e for e in range(KERNEL_E_MAX + 1))
    report = VerifyReport("kernel", f"e<={KERNEL_E_MAX}, 1<=n<={T}", elements * T)
    with timed(report):
        fn = additive_complexity_closed_form
        scanned = scanner.additive_complexity
        for n in range(1, CROSS_CHECK_N + 1):
            if fn(n) != scanned(n):
                record_failure(
                    report, f"closed form disagrees with scan at n={n}: {fn(n)} vs {scanned(n)}"
                )
        report.notes.append(f"closed form cross-checked against scans on 1<=n<={CROSS_CHECK_N}")
        distinct = set()
        for e in range(KERNEL_E_MAX + 1):
            for c in range(1 << e):
                probe = []
                for n in range(1, T + 1):
                    got = fn((n << e) + c)
                    want = fn(n) + 2 * e
                    if got != want:
                        record_failure(report, f"e={e}, c={c}, n={n}: {got} != {want}")
                    if n <= 64:
                        probe.append(got)
                distinct.add(tuple(probe))
        report.notes.append(f"{elements} subsequences, {len(distinct)} distinct as sequences (source: closed)")
    return report
