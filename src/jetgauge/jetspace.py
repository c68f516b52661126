"""Jet-basis enumeration and the generalized Minkowskian signature.

A basis monomial of order k is a multiset of k axis labels (one axis is
timelike, written t; the rest are spacelike).  Enumeration is graded by
degree and lexicographic within a degree, which is the canonical ordering
every downstream module indexes against.

A monomial counts as timelike exactly when it contains an odd number of t
factors.  That rule reproduces the reference listing for orders 1-3
verbatim (the test suite pins all 34 entries for four axes); beyond order
3 it is asserted as the general rule.
"""

from __future__ import annotations

import itertools
import math

_NAMES4 = ("t", "x", "y", "z")


def axis_name(axis: int, n_axes: int) -> str:
    if n_axes <= 4:
        return _NAMES4[axis]
    return "t" if axis == 0 else f"x{axis}"


class MultiIndex:
    """Ordered multiset of axis indices; axis 0 is the timelike one."""

    __slots__ = ("axes",)

    def __init__(self, axes: tuple[int, ...]):
        if len(axes) < 1:
            raise ValueError("degree must be at least 1")
        if any(a < 0 for a in axes):
            raise ValueError("negative axis index")
        if tuple(sorted(axes)) != axes:
            raise ValueError("axis indices must be non-decreasing")
        self.axes = axes

    @property
    def degree(self) -> int:
        return len(self.axes)

    @property
    def t_count(self) -> int:
        return sum(1 for a in self.axes if a == 0)

    def label(self, n_axes: int = 4) -> str:
        return "".join(axis_name(a, n_axes) for a in self.axes)


def is_timelike(m: MultiIndex) -> bool:
    """True iff the monomial carries an odd number of timelike factors."""
    return m.t_count % 2 == 1


class JetBasis:
    def __init__(self, n_axes: int, max_order: int, entries: tuple[MultiIndex, ...]):
        self.n_axes, self.max_order, self.entries = n_axes, max_order, entries

    def __len__(self) -> int:
        return len(self.entries)

    def order_block(self, k: int) -> list[MultiIndex]:
        return [m for m in self.entries if m.degree == k]


MAX_LISTED = 100_000  # largest basis enumerate_basis builds
MAX_ORDER = 100  # largest order signature counts; its work grows as order**2


def basis_size(n_axes: int, max_order: int) -> int:
    """Number of monomials of degree 1..max_order: C(n_axes + max_order, max_order) - 1."""
    return math.comb(n_axes + max_order, max_order) - 1


def enumerate_basis(n_axes: int, max_order: int) -> JetBasis:
    """All monomials of degree 1..max_order in graded-lex order."""
    if n_axes < 1 or max_order < 1:
        raise ValueError("n_axes and max_order must be positive")
    size = basis_size(n_axes, max_order)
    if size > MAX_LISTED:
        raise ValueError(
            f"the basis for {n_axes} axes to order {max_order} has {size} monomials; "
            f"listing is capped at {MAX_LISTED}"
        )
    entries = []
    for k in range(1, max_order + 1):
        for combo in itertools.combinations_with_replacement(range(n_axes), k):
            entries.append(MultiIndex(combo))
    return JetBasis(n_axes, max_order, tuple(entries))


def signature(n_axes: int, max_order: int) -> tuple[int, int]:
    """(p, q) = (timelike count, spacelike count) of the jet basis."""
    per_order = signature_per_order(n_axes, max_order)
    p = sum(pk for pk, _ in per_order)
    return p, basis_size(n_axes, max_order) - p


def signature_per_order(n_axes: int, max_order: int) -> list[tuple[int, int]]:
    """Per-degree (timelike, spacelike) counts, degrees 1..max_order.

    Counted, not enumerated: a degree-k monomial with c timelike factors
    puts its other k - c factors on the n_axes - 1 spacelike axes, in
    C(n_axes - 2 + k - c, k - c) ways, and it is timelike for odd c.
    """
    if n_axes < 2:
        raise ValueError("signature needs at least one spacelike axis (n_axes >= 2)")
    if max_order < 1:
        raise ValueError("n_axes and max_order must be positive")
    if max_order > MAX_ORDER:
        raise ValueError(f"signature order is capped at {MAX_ORDER}, got {max_order}")
    out = []
    for k in range(1, max_order + 1):
        p = sum(math.comb(n_axes - 2 + k - c, k - c) for c in range(1, k + 1, 2))
        out.append((p, math.comb(n_axes - 1 + k, k) - p))
    return out
