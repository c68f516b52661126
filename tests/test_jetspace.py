import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetgauge.jetspace import (
    MAX_LISTED,
    MAX_ORDER,
    MultiIndex,
    basis_size,
    enumerate_basis,
    is_timelike,
    signature,
    signature_per_order,
)
from jetgauge.refdata import JET_LISTING_REFERENCE


def test_counts_for_four_axes():
    assert len(enumerate_basis(4, 1)) == 4
    assert len(enumerate_basis(4, 2)) == 14
    assert len(enumerate_basis(4, 3)) == 34


def test_order_one_listing():
    assert [m.label(4) for m in enumerate_basis(4, 1)] == ["t", "x", "y", "z"]


def test_single_axis():
    assert [m.label(1) for m in enumerate_basis(1, 2)] == ["t", "tt"]


def test_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_basis(0, 1)
    with pytest.raises(ValueError):
        enumerate_basis(4, 0)
    with pytest.raises(ValueError):
        signature(1, 3)


def test_timelike_examples():
    assert is_timelike(MultiIndex((0,)))          # d^t
    assert not is_timelike(MultiIndex((0, 0)))    # d^tt
    assert is_timelike(MultiIndex((0, 2, 3)))     # d^tyz


def test_signatures():
    assert signature(4, 1) == (1, 3)
    assert signature(4, 2) == (4, 10)
    assert signature(4, 3) == (11, 23)


def test_per_order_counts():
    assert signature_per_order(4, 3) == [(1, 3), (3, 7), (7, 13)]


def test_full_listing_matches_reference():
    """The seven-line order/timelike listing, all 34 entries verbatim."""
    basis = enumerate_basis(4, 3)
    for (order, timelike), want in JET_LISTING_REFERENCE.items():
        got = [
            m.label(4)
            for m in basis
            if m.degree == order and is_timelike(m) == timelike
        ]
        assert got == want, (order, timelike)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=4))
def test_signature_sums_to_count(n, r):
    p, q = signature(n, r)
    assert p + q == len(enumerate_basis(n, r))
    # stars and bars per degree
    assert p + q == sum(math.comb(n + k - 1, k) for k in range(1, r + 1))


def test_closed_form_counts_match_enumeration():
    for n in range(2, 7):
        for r in range(1, 7):
            basis = enumerate_basis(n, r)
            per_order = []
            for k in range(1, r + 1):
                block = [m for m in basis if m.degree == k]
                p = sum(1 for m in block if is_timelike(m))
                per_order.append((p, len(block) - p))
            assert signature_per_order(n, r) == per_order, (n, r)
            p = sum(pk for pk, _ in per_order)
            assert signature(n, r) == (p, len(basis) - p), (n, r)
            assert basis_size(n, r) == len(basis)


def test_size_caps():
    assert basis_size(50, 10) > MAX_LISTED
    with pytest.raises(ValueError, match="capped"):
        enumerate_basis(50, 10)
    assert signature(50, 10) == (10883976010, 64510051555)
    signature(4, MAX_ORDER)
    with pytest.raises(ValueError, match="capped"):
        signature(4, MAX_ORDER + 1)
    with pytest.raises(ValueError):
        signature_per_order(4, 0)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=4))
def test_graded_lex_order(n, r):
    keyed = [(m.degree, m.axes) for m in enumerate_basis(n, r)]
    assert keyed == sorted(keyed)


def test_canonical_sorting_enforced():
    with pytest.raises(ValueError):
        MultiIndex((2, 1))
