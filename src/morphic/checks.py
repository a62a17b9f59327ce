"""Verification checks for the doubling fixed point 0112122012202001...

Each verify_* function sweeps a finite range, compares an efficiently
computed quantity against an independently derived expectation, and
returns a VerifyReport.  Failures carry the offending tuple; an empty
failure list certifies the range.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .complexity import FactorScanner
from .morphisms import FixedPointStream, preset
from .regularity import additive_complexity_closed_form
from .reports import VerifyReport, record_failure, timed
from .witnesses import (
    WITNESS_CAP,
    balanced_letter,
    is_factor,
    sigma_power_bytes,
    surplus_letter,
    witness,
    witness_occurrence,
)
from .words import ResourceLimitError, Word, WordDomainError, tau

# Longest factor lengths of the sweeps that visit every factor or every
# start.  Their time grows about fourfold per doubling of n_max; at these
# caps sigma-tau took 7.1-9.4 s, mirror-closure 9.3-9.8 s and ivp-small
# 5.4-7.5 s in fresh processes on a shared 2-vCPU VM.
SIGMA_TAU_N_MAX = 1 << 7
MIRROR_CLOSURE_N_MAX = 1 << 8
IVP_SMALL_N_MAX = 1 << 11


def floor_log2(n: int) -> int:
    if n < 1:
        raise WordDomainError("floor_log2 needs n >= 1")
    return n.bit_length() - 1


def verify_additive_formula(n_max: int, scanner: FactorScanner) -> VerifyReport:
    """Additive complexity equals 2*floor(log2 n) + 3 on 1..n_max."""
    report = VerifyReport("theorem1", f"1<=n<={n_max}", n_max)
    with timed(report):
        scanner.window(n_max)  # the largest first: an oversized range stops here
        for n in range(1, n_max + 1):
            expected = additive_complexity_closed_form(n)
            got = scanner.additive_complexity(n)
            if got != expected:
                record_failure(report, f"n={n}: additive complexity {got}, expected {expected}")
    return report


def verify_ds_bounds(n_max: int, scanner: FactorScanner) -> VerifyReport:
    """Digit sums of length-n factors fill [n - k - 1, n + k + 1] exactly."""
    report = VerifyReport("ds-bounds", f"1<=n<={n_max}", n_max)
    with timed(report):
        scanner.window(n_max)  # the largest first: an oversized range stops here
        for n in range(1, n_max + 1):
            k = floor_log2(n)
            expected = frozenset(range(n - k - 1, n + k + 2))
            got = scanner.digit_sum_set(n)
            if got != expected:
                missing = sorted(expected - got)
                extra = sorted(got - expected)
                record_failure(report, f"n={n}: missing {missing}, unexpected {extra}")
    return report


def verify_witnesses(n_max: int) -> VerifyReport:
    """Closed-form extremal factors: length, both digit sums, occurrence.

    For each n the assembled length-n word must have digit sum n + k + 1
    (k = floor(log2 n)), letter imbalance k + 1, pass the membership
    test ``is_factor``, which desubstitutes it, and occur in its
    closed-form context; its swap-1-and-reverse image must pass the same
    test and have digit sum n - k - 1, pinning the attainable range from
    both ends.
    """
    if n_max > WITNESS_CAP:
        raise ResourceLimitError(f"witnesses beyond {WITNESS_CAP} symbols; lower n_max")
    report = VerifyReport("witness", f"1<=n<={n_max}", n_max)
    with timed(report):
        for n in range(1, n_max + 1):
            w = witness(n)
            whole = w.whole
            ds = whole.digit_sum()
            if ds != n + w.k + 1:
                record_failure(report, f"n={n}: digit sum {ds}, expected {n + w.k + 1}")
            pv = whole.parikh()
            if pv[2] - pv[0] != w.k + 1:
                record_failure(report, f"n={n}: letter imbalance {pv[2] - pv[0]}, expected {w.k + 1}")
            if not is_factor(whole):
                record_failure(report, f"n={n}: witness rejected by the membership test")
            low = tau(1, whole).mirror()
            if low.digit_sum() != n - w.k - 1:
                record_failure(
                    report, f"n={n}: low witness digit sum {low.digit_sum()}, expected {n - w.k - 1}"
                )
            if not is_factor(low):
                record_failure(report, f"n={n}: low witness is not a factor")
            try:
                witness_occurrence(w)
            except RuntimeError:
                record_failure(report, f"n={n}: witness missing from its closed-form context")
    return report


def verify_swap_reverse_commutation(n_max: int, scanner: FactorScanner) -> VerifyReport:
    """Substituting a swapped reversal matches swapping (one index down) the substituted reversal.

    For every factor u and swap index c: applying the substitution to
    reverse(swap_c(u)) equals reverse(swap_{c-1 mod 3}(substitution(u))).
    The off-by-one pairing with c+1 is also tried and its failure rate
    recorded as a note, pinning down which pairing is the true one.
    """
    if n_max > SIGMA_TAU_N_MAX:
        raise ResourceLimitError(f"factor length {n_max} exceeds the cap of {SIGMA_TAU_N_MAX}")
    report = VerifyReport("sigma-tau", f"factors of length 1..{n_max}, c in 0..2", 0)
    with timed(report):
        m, _ = preset("tml")
        checked = 0
        plus_failures = 0
        for n in range(1, n_max + 1):
            for b in scanner.factor_index(n):
                u = Word.from_checked(scanner.alphabet, b)
                mu = m.apply(u)
                for c in range(3):
                    checked += 1
                    lhs = m.apply(tau(c, u).mirror())
                    rhs = tau((c - 1) % 3, mu).mirror()
                    if lhs != rhs:
                        record_failure(report, f"u={u}, c={c}: images differ")
                    if lhs != tau((c + 1) % 3, mu).mirror():
                        plus_failures += 1
        report.tuples_checked = checked
        report.notes.append(
            f"index-decrement pairing holds throughout; index-increment pairing fails on {plus_failures} of {checked} tuples"
        )
    return report


def verify_mirror_closure(n_max: int, scanner: FactorScanner) -> VerifyReport:
    """Factors stay factors under any letter swap followed by reversal.

    Plain reversal does not preserve the factor set (110 is the
    reversal of the factor 011 and never occurs); composing with any
    of the three two-letter swaps does, and that is what is checked.
    """
    if n_max > MIRROR_CLOSURE_N_MAX:
        raise ResourceLimitError(f"factor length {n_max} exceeds the cap of {MIRROR_CLOSURE_N_MAX}")
    report = VerifyReport("mirror-closure", f"factors of length 1..{n_max}, c in 0..2", 0)
    with timed(report):
        checked = 0
        for n in range(1, n_max + 1):
            for b in scanner.factor_index(n):
                u = Word.from_checked(scanner.alphabet, b)
                for c in range(3):
                    checked += 1
                    if not is_factor(tau(c, u).mirror()):
                        record_failure(report, f"u={u}, c={c}: swapped reversal is not a factor")
        report.tuples_checked = checked
    return report


# symbols of a counted word built at a time
_COUNT_CHUNK = 1 << 20


def _word_chunks(base: np.ndarray, blocks: np.ndarray):
    """sigma^j(base) as (start, symbols) pairs, from rows blocks[y] = sigma^j(y).

    Each chunk joins the blocks of _COUNT_CHUNK >> j symbols of base, or
    of the rest of base, so it holds at most _COUNT_CHUNK symbols.
    """
    width = blocks.shape[1]
    step = _COUNT_CHUNK // width
    for lo in range(0, len(base), step):
        yield lo * width, blocks[base[lo : lo + step]].ravel()


def _twos_over_zeros(part: np.ndarray) -> int:
    return int(np.count_nonzero(part == 2)) - int(np.count_nonzero(part == 0))


def _running_differences(streams: list[FixedPointStream], letter: int, heights: list[int]) -> list[int]:
    """#2 - #0 in sigma^l(letter), for rising heights l.

    streams[y] is the fixed point on y.  With L the top height and
    j = L // 2, sigma^L(letter) = sigma^j(sigma^(L-j)(letter)) is built
    a chunk at a time from two kinds of short prefix: the base
    sigma^(L-j)(letter), of 2^(L-j) symbols, and one block sigma^j(y) of
    2^j symbols per letter y.  sigma^l(letter) is its length-2^l prefix,
    so each chunk's count is split at the heights inside it.  Alive at
    once: the base, the blocks and at most two chunk-sized arrays (a
    chunk with its comparison, or with the next chunk being built).
    """
    top = heights[-1]
    j = top // 2
    base = streams[letter].array(1 << (top - j))
    blocks = np.stack([s.array(1 << j) for s in streams])
    ends = [1 << l for l in heights]
    diffs, counted = [], 0
    for start, part in _word_chunks(base, blocks):
        cut = 0
        while len(diffs) < len(ends) and ends[len(diffs)] <= start + len(part):
            end = ends[len(diffs)] - start
            counted += _twos_over_zeros(part[cut:end])
            diffs.append(counted)
            cut = end
        counted += _twos_over_zeros(part[cut:])
    return diffs


def verify_surplus_balance_counts(l_max: int) -> VerifyReport:
    """Letter-count balance of substitution powers of the two letter families.

    The l-th power of surplus_letter(l) carries exactly one more 2 than
    0; the l-th power of balanced_letter(l) carries equally many.  Two
    routes must agree: letter counting on sigma^l(x), which is the
    length-2^l prefix of the fixed point on x since the substitution is
    prolongable on every letter, and an exact integer power of the
    per-letter incidence matrix.  Each sigma^l(x) is counted block by
    block (``_running_differences``) from prefixes of at most
    2^(l_max - l_max // 2) symbols of the three fixed points, so about
    two chunks of _COUNT_CHUNK symbols are the largest arrays alive.
    """
    if l_max > 26:
        raise ResourceLimitError("powers beyond 2^26 symbols; lower l_max")
    report = VerifyReport("dc-counts", f"0<=l<={l_max}", 2 * (l_max + 1))
    with timed(report):
        m, _ = preset("tml")
        incidence = ((1, 0, 1), (1, 1, 0), (0, 1, 1))
        power = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        sweeps = {}  # letter -> [(l, expected, matrix route)]
        for l in range(l_max + 1):
            for letter, expected in ((surplus_letter(l), 1), (balanced_letter(l), 0)):
                sweeps.setdefault(letter, []).append((l, expected, power[2][letter] - power[0][letter]))
            power = [
                [sum(incidence[i][t] * power[t][j] for t in range(3)) for j in range(3)]
                for i in range(3)
            ]
        streams = [FixedPointStream(m, y) for y in range(3)]
        for letter, sweep in sorted(sweeps.items()):
            diffs = _running_differences(streams, letter, [l for l, _, _ in sweep])
            for (l, expected, exact), counted in zip(sweep, diffs, strict=True):
                if counted != expected:
                    record_failure(report, f"l={l}, letter={letter}: counted diff {counted}, expected {expected}")
                if exact != counted:
                    record_failure(report, f"l={l}, letter={letter}: matrix route {exact} != counting route {counted}")
    return report


def verify_witness_affixes(n_max: int) -> VerifyReport:
    """Witness halves align with substitution powers of single letters.

    With k = floor(log2 n): for even k the left half is a suffix of
    sigma^k(surplus_letter(k+1)) and the right half a prefix of
    sigma^(k+1)(surplus_letter(k)); for odd k the roles move one step,
    left in sigma^(k+1)(surplus_letter(k+2)), right in
    sigma^k(surplus_letter(k-1)).
    """
    if n_max > WITNESS_CAP:
        raise ResourceLimitError(f"witnesses beyond {WITNESS_CAP} symbols; lower n_max")
    report = VerifyReport("prefix-suffix", f"2<=n<={n_max}", max(0, n_max - 1))
    with timed(report):
        for n in range(2, n_max + 1):
            w = witness(n)
            k = w.k
            if k % 2 == 0:
                left_context = sigma_power_bytes(surplus_letter(k + 1), k)
                right_context = sigma_power_bytes(surplus_letter(k), k + 1)
            else:
                left_context = sigma_power_bytes(surplus_letter(k + 2), k + 1)
                right_context = sigma_power_bytes(surplus_letter(k - 1), k)
            if not left_context.endswith(w.left.symbols):
                record_failure(report, f"n={n}: left half is not a suffix of its context power")
            if not right_context.startswith(w.right.symbols):
                record_failure(report, f"n={n}: right half is not a prefix of its context power")
    return report


# Added to a u-walk's sum, and taken from a v-walk's, once its word has
# ended, so that no gain with an ended walk is 1.
_ENDED = 1 << 10


def _walk_sums(expansions: np.ndarray, rows: np.ndarray, pos: np.ndarray, forward: bool, ended: int) -> np.ndarray:
    """Running sums of the letters walked from each anchor, step by step.

    Entry [t, a] is the sum of the t + 1 letters after anchor a, or
    before it walking backward, and ``ended`` once they run out.
    """
    length = expansions.shape[1]
    cs = np.zeros((len(expansions), length + 1), dtype=np.int16)
    np.cumsum(expansions, axis=1, dtype=np.int16, out=cs[:, 1:])
    steps = np.arange(1, length)[:, None]
    if forward:
        ends = pos + steps
        sums = cs[rows, np.minimum(ends, length - 1) + 1] - cs[rows, pos + 1]
        return np.where(ends < length, sums, np.int16(ended))
    ends = pos - steps
    sums = cs[rows, pos] - cs[rows, np.maximum(ends, 0)]
    return np.where(ends >= 0, sums, np.int16(ended))


def _shift_gain_misses(
    expansions: np.ndarray, a_anchors: tuple[np.ndarray, np.ndarray], b_anchors: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Anchor pairs that no forward or backward shift takes to gain exactly 1.

    ``expansions`` holds one word per row; an anchor is a (row, position)
    pair, given as two arrays.  For u at anchor i and v at anchor j a
    forward shift by m gains 2 + sum(v[j+1 .. j+m]) - sum(u[i+1 .. i+m])
    while both words last, and a backward shift by p <= min(i, j) gains
    sum(u[i-p .. i-1]) - sum(v[j-p .. j-1]).  All pairs walk forward
    together, one step at a time, and a pair leaves once its gain is 1;
    the rest then walk backward, until none is left.  Returns the
    indices into ``a_anchors`` and ``b_anchors`` of the pairs left over,
    in row-major order.
    """
    a = np.repeat(np.arange(len(a_anchors[0])), len(b_anchors[0]))
    b = np.tile(np.arange(len(b_anchors[0])), len(a_anchors[0]))
    for forward in (True, False):
        u = _walk_sums(expansions, *a_anchors, forward, _ENDED)
        v = _walk_sums(expansions, *b_anchors, forward, -_ENDED)
        for t in range(len(u)):
            if not len(a):
                break
            gain = 2 + v[t][b] - u[t][a] if forward else u[t][a] - v[t][b]
            keep = gain != 1
            a, b = a[keep], b[keep]
    return a, b


def _sweep_shift_gains(report: VerifyReport, expansions: np.ndarray) -> None:
    """Record every anchor pair of ``expansions`` that no shift takes to gain 1.

    The anchors are the middle-third positions holding 0 (the first
    word of a pair) or 2 (the second), row by row; failures are recorded
    in row-major order of the (0-anchor, 2-anchor) pairs.
    """
    third = expansions.shape[1] // 3
    middle = expansions[:, third : 2 * third]
    a_rows, a_pos = np.nonzero(middle == 0)
    b_rows, b_pos = np.nonzero(middle == 2)
    a_pos += third
    b_pos += third
    a, b = _shift_gain_misses(expansions, (a_rows, a_pos), (b_rows, b_pos))
    for i, j in zip(a_pos[a].tolist(), b_pos[b].tolist()):
        record_failure(report, f"i={i}, j={j}: no shift reaches gain 1")
    report.tuples_checked = len(a_rows) * len(b_rows)


def verify_shift_gain_exhaustive(scanner: FactorScanner) -> VerifyReport:
    """Exhaustive anchored-shift sweep over all expanded length-3 factors.

    Each scanned length-3 factor must pass the membership test
    ``is_factor``, at this length a lookup in the pair context
    sigma^6(0011220210), which ties it to the fixed point.  Expand each
    through six substitution steps (192 letters).  For every pair of
    expansions, every middle-third position i with letter 0 in the first
    and j with letter 2 in the second, some forward shift within the
    window or backward shift within the anchors must change the running
    sum to exactly 1.
    """
    report = VerifyReport("tech-lemma", "|u|=|v|=3, 64<=i,j<128", 0)
    with timed(report):
        factors = scanner.factor_index(3)
        for b in factors:
            u = Word.from_checked(scanner.alphabet, b)
            if not is_factor(u):
                record_failure(report, f"u={u}: rejected by the pair-context membership test")
        expanded = b"".join(sigma_power_bytes(s, 6) for u in factors for s in u)
        _sweep_shift_gains(report, np.frombuffer(expanded, dtype=np.uint8).reshape(len(factors), 192))
    return report


def verify_halving_inequality(n_max: int, scanner: FactorScanner) -> VerifyReport:
    """Letter-count disparities track the half-length factor set.

    Each length-n factor's three pairwise count differences lie within
    1 of a corresponding difference attained at length floor(n/2): the
    2-vs-0 difference tracks half-length 1-vs-0, the 1-vs-0 tracks
    1-vs-2, and the 1-vs-2 tracks 0-vs-2.
    """
    report = VerifyReport("halving", f"1<=n<={n_max}", 0)
    with timed(report):
        checked = 0
        for n in range(1, n_max + 1):
            half = n // 2
            halves = scanner.parikh_set(half) if half >= 1 else frozenset({(0, 0, 0)})
            s1 = {x[1] - x[0] for x in halves}
            s2 = {x[1] - x[2] for x in halves}
            s3 = {x[0] - x[2] for x in halves}
            for u in scanner.parikh_set(n):
                targets = ((u[2] - u[0], s1), (u[1] - u[0], s2), (u[1] - u[2], s3))
                for part, (value, source) in enumerate(targets, start=1):
                    checked += 1
                    if not any(abs(value - v) <= 1 for v in source):
                        record_failure(report, f"n={n}, part {part}: {value} is not within 1 of {sorted(source)}")
        report.tuples_checked = checked
    return report


def verify_interior_sums_small(n_max: int, scanner: FactorScanner) -> VerifyReport:
    """Digit sums of length-n factors form a gap-free range, n <= n_max.

    Enumerates factors directly from the shortest prefix known to
    contain all of them, then checks the value set is exactly
    [n - k - 1, n + k + 1] and agrees with the windowed route.
    """
    if n_max > IVP_SMALL_N_MAX:
        raise ResourceLimitError(f"factor length {n_max} exceeds the cap of {IVP_SMALL_N_MAX}")
    report = VerifyReport("ivp-small", f"1<=n<={n_max}", 0)
    with timed(report):
        checked = 0
        for n in range(1, n_max + 1):
            r = scanner.recurrence_index(n)
            data = bytes(scanner.stream.array(r))
            cs = [0, *accumulate(data)]
            sums = {cs[i + n] - cs[i] for i in range(r - n + 1)}
            k = floor_log2(n)
            expected = set(range(n - k - 1, n + k + 2))
            checked += len(expected)
            if sums != expected:
                record_failure(report, f"n={n}: attained {sorted(sums)}, expected the range {n - k - 1}..{n + k + 1}")
            if frozenset(sums) != scanner.digit_sum_set(n):
                record_failure(report, f"n={n}: prefix route disagrees with windowed route")
        report.tuples_checked = checked
    return report


def verify_subword_recurrence(n_max: int, scanner: FactorScanner) -> VerifyReport:
    """Factor counts: 3 and 9 at lengths 1 and 2, then the doubling relations.

    For n >= 3: count(2n) = count(n) + count(n+1) and
    count(2n+1) = 2 * count(n+1).
    """
    report = VerifyReport("subword-recurrence", f"3<=n<={n_max} plus base cases", 0)
    with timed(report):
        profile = scanner.distinct_profile(2 * n_max + 1)

        def rho(n: int) -> int:
            return int(profile[n - 1])

        checked = 2
        if rho(1) != 3:
            record_failure(report, f"length 1: {rho(1)} factors, expected 3")
        if rho(2) != 9:
            record_failure(report, f"length 2: {rho(2)} factors, expected 9")
        for n in range(3, n_max + 1):
            checked += 2
            if rho(2 * n) != rho(n) + rho(n + 1):
                record_failure(report, f"n={n}: count({2 * n}) != count({n}) + count({n + 1})")
            if rho(2 * n + 1) != 2 * rho(n + 1):
                record_failure(report, f"n={n}: count({2 * n + 1}) != 2 * count({n + 1})")
        report.tuples_checked = checked
    return report

