import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_factors
from morphic.complexity import FactorScanner
from morphic.ivp import (
    CENSUS_CAP,
    PREDICTED_OFFSETS,
    check_ivp,
    predicted_coded_ds_set,
    predicted_parikh_set,
    sigma3_stream,
    verify_coding_grid,
    verify_parikh_prediction,
)
from morphic.morphisms import FixedPointStream, preset
from morphic.words import Coding, ResourceLimitError, WordDomainError


class TestOffsetFamily:
    def test_cardinalities(self):
        assert [len(PREDICTED_OFFSETS[r]) for r in (0, 1, 2)] == [7, 6, 6]

    def test_offsets_sum_to_residue(self):
        for r, offsets in PREDICTED_OFFSETS.items():
            assert all(sum(o) == r for o in offsets)
            assert len(set(offsets)) == len(offsets)

    def test_prediction_object(self):
        p = predicted_parikh_set(10)
        assert len(p) == 6 and all(sum(v) == 10 for v in p)
        assert (4, 2, 4) in p

    def test_needs_length_3(self):
        with pytest.raises(WordDomainError):
            predicted_parikh_set(2)

    def test_prediction_matches_scan(self, s3_scan):
        for n in (3, 4, 5, 17, 60):
            assert s3_scan.parikh_set(n) == predicted_parikh_set(n)

    def test_verify_parikh_prediction(self, s3_scan):
        rep = verify_parikh_prediction(90, s3_scan)
        assert rep.passed and rep.tuples_checked == 88


class TestCodedSums:
    def test_identity_coding_has_no_gaps(self, s3):
        rep = check_ivp(s3, Coding(s3.alphabet, (0, 1, 2)), 3, 60)
        assert rep.passed
        assert rep.failures == [] and rep.gaps == {}
        # no coding sums the letter values, here the same identity coding
        assert check_ivp(s3, None, 3, 60).gaps == {}

    def test_spread_coding_gap_structure(self, s3):
        rep = check_ivp(s3, Coding(s3.alphabet, (0, 1, 3)), 3, 61)
        assert not rep.passed
        for n in range(3, 62):
            m, r = divmod(n, 3)
            if r == 0:
                assert n not in rep.gaps
            elif r == 1:
                assert list(rep.gaps[n]) == [4 * m - 1]
            else:
                assert list(rep.gaps[n]) == [4 * m + 5]

    def test_predicted_coded_sums_match_scan(self, s3):
        sc = FactorScanner(s3, Coding(s3.alphabet, (0, 1, 3)))
        for n in (3, 4, 5, 10, 33):
            assert sc.digit_sum_set(n) == predicted_coded_ds_set((0, 1, 3), n)

    def test_report_dict_shape(self, s3):
        d = check_ivp(s3, Coding(s3.alphabet, (0, 1, 3)), 3, 7).to_dict()
        assert d["check"] == "ivp"
        assert d["range"] == "coding 0,1,3; 3<=n<=7"
        assert d["gaps"] == {"4": [3], "5": [9], "7": [7]}
        assert d["failures"] == ["n=4: 1 missing, least 3", "n=5: 1 missing, least 9", "n=7: 1 missing, least 7"]

    def test_census_cap(self, s3):
        with pytest.raises(ResourceLimitError, match="gap census"):
            check_ivp(s3, Coding(s3.alphabet, (0, 1, CENSUS_CAP)), 1, 2)

    def test_wide_census_memory_per_missing_value(self):
        # about 3.9 million missing sums; one Python int each would take about 40 B
        m, seed = preset("tml")
        tracemalloc.start()
        try:
            rep = check_ivp(FixedPointStream(m, seed), Coding(m.alphabet, (0, 5937, 100000)), 1, 12)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        missing = sum(map(len, rep.gaps.values()))
        assert missing > 3_000_000
        assert peak / missing < 16 and held / missing < 12

    def test_wide_census_memory_is_independent_of_the_spread(self):
        # 3,876,104 missing sums, held as runs between the few attained ones
        m, seed = preset("tml")
        tracemalloc.start()
        try:
            rep = check_ivp(FixedPointStream(m, seed), Coding(m.alphabet, (0, 5937, 100000)), 1, 12)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, rep.gaps.values())) == 3_876_104
        assert peak < 4_000_000 and held < 2_000_000

    @settings(deadline=None, max_examples=40)
    @given(
        name=st.sampled_from(["tml", "sigma3"]),
        spread=st.sampled_from([3, 3000]),
        data=st.data(),
    )
    def test_gaps_match_brute_force(self, name, spread, data):
        values = tuple(data.draw(st.lists(st.integers(-spread, spread), min_size=3, max_size=3)))
        m, seed = preset(name)
        images = tuple(im.symbols for im in m.images)
        rep = check_ivp(FixedPointStream(m, seed), Coding(m.alphabet, values), 1, 10)
        for n in range(1, 11):
            attained = {sum(values[s] for s in f) for f in block_factors(images, seed, n)}
            missing = [v for v in range(min(attained), max(attained) + 1) if v not in attained]
            if missing:
                assert list(rep.gaps[n]) == missing and len(rep.gaps[n]) == len(missing)
            else:
                assert n not in rep.gaps
        gaps = rep.to_dict()["gaps"]
        assert gaps.keys() == {str(n) for n in rep.gaps}
        assert all(type(v) is int for vals in gaps.values() for v in vals)
        assert all(vals == list(rep.gaps[int(n)]) for n, vals in gaps.items())

    def test_range_validation(self, s3):
        with pytest.raises(WordDomainError):
            check_ivp(s3, Coding(s3.alphabet, (0, 1, 2)), 5, 4)


class TestCodingGrid:
    def test_small_grid(self):
        rep = verify_coding_grid(45, 4)
        assert rep.passed
        assert rep.tuples_checked == 10 * 43
