import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ideal_block_affinity, symmetric_eigen
from iescluster.affinity import normalized_laplacian
from iescluster.eigengap import eigengap_k
from iescluster.errors import (
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
)


def descending_spectra(min_n=2, max_n=20):
    return st.lists(
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        min_size=min_n,
        max_size=max_n,
    ).map(lambda vs: np.sort(np.asarray(vs))[::-1])


def dyadic_spectra(min_n=2, max_n=20):
    # Values on a binary-exact grid so that adding a dyadic shift keeps every
    # gap bitwise identical.
    return st.lists(
        st.integers(min_value=-1024, max_value=1024).map(lambda i: i / 1024),
        min_size=min_n,
        max_size=max_n,
    ).map(lambda vs: np.sort(np.asarray(vs))[::-1])


class TestEigengapK:
    def test_double_block_spectrum(self):
        # gaps |1-1|, |1-0.2|, |0.2-0.1| = [0, 0.8, 0.1]; n=4 so the search
        # stops at index 2, where the 0.8 gap wins.
        est = eigengap_k([1.0, 1.0, 0.2, 0.1])
        assert est.gaps == pytest.approx([0.0, 0.8, 0.1])
        assert est.search_limit == 2
        assert est.k == 2

    def test_single_cluster_spectrum(self):
        # gap after the first eigenvalue (0.9) dominates
        est = eigengap_k([1.0, 0.1, 0.09, 0.08])
        assert est.k == 1

    def test_two_values_forced_to_one(self):
        est = eigengap_k([1.0, -1.0])
        assert est.search_limit == 1
        assert est.k == 1

    def test_insufficient_values(self):
        with pytest.raises(InsufficientDataError):
            eigengap_k([1.0])

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidDataError):
            eigengap_k([0.1, 0.9, 0.5])

    def test_bad_fraction(self):
        with pytest.raises(InvalidParameterError):
            eigengap_k([1.0, 0.5], search_fraction=0.0)

    def test_tie_prefers_fewer_clusters(self):
        # equal gaps 0.3 at positions 1 and 2; smallest index wins
        est = eigengap_k([1.0, 0.7, 0.4, 0.35, 0.3, 0.25])
        assert est.k == 1

    @settings(max_examples=60, deadline=None)
    @given(dyadic_spectra(), st.integers(min_value=-20, max_value=20).map(lambda i: i / 4))
    def test_shift_invariance(self, spectrum, shift):
        base = eigengap_k(spectrum)
        shifted = eigengap_k(spectrum + shift)
        assert shifted.k == base.k
        assert np.array_equal(shifted.gaps, base.gaps)

    @settings(max_examples=60, deadline=None)
    @given(descending_spectra())
    def test_k_one_iff_first_gap_strict_max(self, spectrum):
        est = eigengap_k(spectrum)
        if est.search_limit == 1:
            assert est.k == 1
            return
        window = est.gaps[: est.search_limit]
        if est.k == 1:
            assert np.all(window[0] >= window[1:])
        else:
            assert np.any(window[1:] > window[0])

    @pytest.mark.parametrize("sizes", [(5, 5), (4, 4, 4), (3, 3, 3, 3, 3)])
    def test_ideal_block_laplacian_recovers_block_count(self, sizes):
        lap = normalized_laplacian(ideal_block_affinity(sizes))
        values = symmetric_eigen(lap).values
        assert eigengap_k(values).k == len(sizes)
