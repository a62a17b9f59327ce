"""Full-scale acceptance gates.

Each test pins one headline guarantee of the library at its contractual
range and budget, using fresh module-scoped scanners so the timings below
reflect a cold start of this file, not leftovers from the unit suites.
A visible one-line verdict is emitted per criterion.
"""

import numpy as np
import pytest

from morphic.checks import (
    verify_additive_formula,
    verify_ds_bounds,
    verify_interior_sums_small,
    verify_mirror_closure,
    verify_shift_gain_exhaustive,
    verify_subword_recurrence,
    verify_surplus_balance_counts,
    verify_swap_reverse_commutation,
    verify_witnesses,
)
from morphic.complexity import FactorScanner
from morphic.ivp import (
    check_ivp,
    sigma3_stream,
    verify_coding_grid,
    verify_parikh_prediction,
)
from morphic.morphisms import automatic_prefix, preset
from morphic.regularity import verify_additive_recurrence, verify_kernel_affine
from morphic.witnesses import ternary_stream
from morphic.words import Coding


@pytest.fixture(scope="module")
def tml_acc():
    return FactorScanner(ternary_stream())


@pytest.fixture(scope="module")
def s3_acc():
    return FactorScanner(sigma3_stream())


def announce(capsys, number, text):
    with capsys.disabled():
        print(f"\n[acceptance {number:02d}] {text}: PASS", flush=True)


def test_criterion_01_additive_closed_form(capsys, tml_acc):
    report = verify_additive_formula(4096, scanner=tml_acc)
    assert report.passed, report.failures[:5]
    assert report.tuples_checked == 4096
    assert report.elapsed_ms < 60_000.0
    announce(capsys, 1, f"additive complexity closed form, n <= 4096, {report.elapsed_ms:.0f} ms")


def test_criterion_02_digit_sum_bounds(capsys, tml_acc):
    report = verify_ds_bounds(4096, scanner=tml_acc)
    assert report.passed, report.failures[:5]
    assert report.tuples_checked == 4096
    announce(capsys, 2, "digit sums of length-n factors fill the predicted interval, n <= 4096")


def test_criterion_03_witness_construction(capsys):
    report = verify_witnesses(4096)
    assert report.passed, report.failures[:5]
    assert report.tuples_checked == 4096
    announce(capsys, 3, "extremal witnesses constructed, located, both digit-sum extremes hit")


def test_criterion_04_shift_gain_exhaustive(capsys, tml_acc):
    report = verify_shift_gain_exhaustive(scanner=tml_acc)
    assert report.passed, report.failures[:5]
    assert report.tuples_checked == 102_400
    assert report.elapsed_ms < 30_000.0
    announce(capsys, 4, f"two-sided shift gain holds on all 102400 anchor tuples, {report.elapsed_ms:.0f} ms")


def test_criterion_05_interior_window_sums(capsys, tml_acc):
    report = verify_interior_sums_small(128, scanner=tml_acc)
    assert report.passed, report.failures[:5]
    announce(capsys, 5, "window sums inside a recurrence prefix already fill the interval, n <= 128")


def test_criterion_06_subword_recurrence(capsys, tml_acc):
    report = verify_subword_recurrence(256, scanner=tml_acc)
    assert report.passed, report.failures[:5]
    announce(capsys, 6, "subword counts satisfy both doubling relations, n <= 256")


def test_criterion_07_regular_structure(capsys, tml_acc):
    rec = verify_additive_recurrence(256, scanner=tml_acc)
    assert rec.passed, rec.failures[:5]
    ker = verify_kernel_affine(256, scanner=tml_acc)
    assert ker.passed, ker.failures[:5]
    announce(capsys, 7, "additive recurrence and affine kernel under index doubling")


def test_criterion_08_symmetry_toolkit(capsys, tml_acc):
    comm = verify_swap_reverse_commutation(10, scanner=tml_acc)
    assert comm.passed, comm.failures[:5]
    closure = verify_mirror_closure(10, scanner=tml_acc)
    assert closure.passed, closure.failures[:5]
    counts = verify_surplus_balance_counts(24)
    assert counts.passed, counts.failures[:5]
    announce(capsys, 8, "swap-reverse commutation, mirror closure, per-letter image counts")


def test_criterion_09_rotation_word_structure(capsys, s3_acc):
    pred = verify_parikh_prediction(300, scanner=s3_acc)
    assert pred.passed, pred.failures[:5]

    for n in range(3, 301):
        expected = 7 if n % 3 == 0 else 6
        assert s3_acc.abelian_complexity(n) == expected, n

    flat = check_ivp(s3_acc.stream, Coding(s3_acc.alphabet, (0, 1, 2)), 3, 300)
    assert flat.passed and flat.gaps == {}

    s3 = sigma3_stream()
    skewed = check_ivp(s3, Coding(s3.alphabet, (0, 1, 3)), 3, 300)
    assert not skewed.passed
    for m in range(1, 100):
        n = 3 * m + 1
        if n > 300:
            break
        assert list(skewed.gaps[n]) == [4 * m - 1], n
    for n in range(3, 301, 3):
        assert n not in skewed.gaps, n

    grid = verify_coding_grid(120, 5)
    assert grid.passed, grid.failures[:5]
    announce(capsys, 9, "abelian structure and coded digit-sum grids of the rotation word")


def test_criterion_10_complexity_chain(capsys, tml_acc, s3_acc):
    for scanner in (tml_acc, s3_acc):
        profile = scanner.distinct_profile(512)
        for n in range(1, 513):
            plus = scanner.additive_complexity(n)
            ab = scanner.abelian_complexity(n)
            assert plus <= ab <= int(profile[n - 1]), (scanner, n)
    announce(capsys, 10, "additive <= abelian <= subword complexity, n <= 512, both words")


def test_criterion_11_generator_cross_check(capsys):
    n = 1 << 20
    idx = np.arange(n, dtype=np.int64)

    popcount = np.zeros(n, dtype=np.int64)
    for shift in range(20):
        popcount += (idx >> shift) & 1

    digit3 = np.zeros(n, dtype=np.int64)
    power = 1
    while power < n:
        digit3 += (idx // power) % 3
        power *= 3

    doubling = ternary_stream().array(n)
    rotation = sigma3_stream().array(n)
    assert np.array_equal(doubling, popcount % 3)
    assert np.array_equal(rotation, digit3 % 3)

    m2, seed2 = preset("tml")
    m3, seed3 = preset("sigma3")
    assert np.array_equal(automatic_prefix(m2, seed2, n), doubling)
    assert np.array_equal(automatic_prefix(m3, seed3, n), rotation)
    announce(capsys, 11, "four independent generation routes agree on 2^20 letters")
