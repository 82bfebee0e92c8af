"""Density certificates and the parity benchmark family.

The boundary between two disjoint properties is the set of Hamming-edge
pairs (one string from each side differing in exactly one bit).  Its
density on either side, kept as exact rationals, certifies a lower
bound on separating formula size: no formula smaller than
ceil(left density * right density) can tell the sides apart.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING

from .errors import InputError
from .formula import Record, _setfield
from .props import And, Not, Or, PropFormula, StringProperty, Var, check_same_width

if TYPE_CHECKING:  # imported where density builds one
    from fractions import Fraction


class DensityPair(Record):
    """Boundary-edge densities of a disjoint pair: edges per left string
    and edges per right string."""

    __slots__ = ("left", "right", "edge_count")

    def __init__(self, left: Fraction, right: Fraction, edge_count: int) -> None:
        _setfield(self, "left", left)
        _setfield(self, "right", right)
        _setfield(self, "edge_count", edge_count)


def density(left: StringProperty, right: StringProperty) -> DensityPair:
    """Exact boundary densities; requires disjoint nonempty sides."""
    from fractions import Fraction

    edges = _edge_count(left, right)
    return DensityPair(Fraction(edges, len(left)), Fraction(edges, len(right)), edges)


def _edge_count(left: StringProperty, right: StringProperty) -> int:
    """The number of boundary edges; requires disjoint nonempty sides."""
    check_same_width(left, right)
    if left.mask & right.mask:
        raise InputError("density requires disjoint properties")
    if left.is_empty or right.is_empty:
        raise InputError("density requires nonempty properties")
    width = left.width
    edges = 0
    for e in range(1 << width):
        if not left.mask >> e & 1:
            continue
        for i in range(width):
            if right.mask >> (e ^ (1 << i)) & 1:
                edges += 1
    return edges


def density_lower_bound(left: StringProperty, right: StringProperty) -> int:
    """ceil(left density * right density) = ceil(edges**2 / (|left| *
    |right|)), a size every separating formula must reach."""
    edges = _edge_count(left, right)
    return -(-(edges * edges) // (len(left) * len(right)))


# ---------------------------------------------------------------------------
# parity


def parity_property(n: int) -> tuple[StringProperty, StringProperty]:
    """(even-weight strings, odd-weight strings) of width n."""
    if not 1 <= n <= 16:
        raise InputError(f"parity width must be 1..16, got {n}")
    even = 0
    odd = 0
    for e in range(1 << n):
        if e.bit_count() % 2 == 0:
            even |= 1 << e
        else:
            odd |= 1 << e
    return StringProperty(n, even), StringProperty(n, odd)


def parity_dnf(n: int) -> PropFormula:
    """Disjunction over the even-weight strings of the conjunction of
    literals pinning every bit; size n * 2**(n-1)."""
    if not 1 <= n <= 10:
        raise InputError(f"parity width must be 1..10, got {n}")
    terms = []
    for e in range(1 << n):
        if e.bit_count() % 2:
            continue
        lits: list[PropFormula] = [
            Var(i) if e >> (i - 1) & 1 else Not(Var(i)) for i in range(1, n + 1)
        ]
        terms.append(reduce(And, lits))
    return reduce(Or, terms)


def parity_balanced(n: int) -> PropFormula:
    """Balanced divide-and-conquer parity: even parity of bits i..j is an
    equivalence of the parities of the two halves.  Size n**2 when n is a
    power of two and at most (n+1)**2 in general."""
    if not 1 <= n <= 10:
        raise InputError(f"parity width must be 1..10, got {n}")

    def even(i: int, j: int) -> PropFormula:
        if i == j:
            return Not(Var(i))
        k = (i + j) // 2
        a = even(i, k)
        b = even(k + 1, j)
        return Or(And(a, b), And(Not(a), Not(b)))

    return even(1, n)
