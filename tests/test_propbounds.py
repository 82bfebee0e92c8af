import math
import random
from fractions import Fraction

import pytest

import suites
from efgames import (
    BitString,
    InputError,
    StringProperty,
    density,
    density_lower_bound,
    evaluate,
    parity_balanced,
    parity_dnf,
    parity_property,
    separates,
    size,
)


def test_parity_property_splits_by_weight():
    even, odd = parity_property(2)
    assert sorted(map(str, even.strings())) == ["00", "11"]
    assert sorted(map(str, odd.strings())) == ["01", "10"]


def test_parity_densities_are_width_by_width():
    for n in range(1, 7):
        pair = density(*parity_property(n))
        assert pair.left == Fraction(n)
        assert pair.right == Fraction(n)


def test_parity_two_boundary_edge_count():
    pair = density(*parity_property(2))
    assert pair.edge_count == 4


def test_density_exact_fractions():
    left = StringProperty.from_strings(2, ["00", "11"])
    right = StringProperty.from_strings(2, ["01"])
    pair = density(left, right)
    # "00" and "11" each neighbor "01" once
    assert pair.edge_count == 2
    assert pair.left == Fraction(1)
    assert pair.right == Fraction(2)
    assert density_lower_bound(left, right) == 2


def test_density_bound_rounds_up():
    left = StringProperty.from_strings(3, ["000", "011", "101", "110"])
    right = StringProperty.from_strings(3, ["001"])
    pair = density(left, right)
    assert pair.edge_count == 3
    assert density_lower_bound(left, right) == (
        pair.left * pair.right
    ).__ceil__()


def test_density_bound_is_the_ceiling_of_the_fraction_product():
    # the integer ceiling against the product of the exact densities, on
    # seeded disjoint pairs of widths 1-6 and on parity
    rng = random.Random(41)
    pairs = [parity_property(n) for n in range(1, 7)]
    while len(pairs) < 300:
        width = rng.randint(1, 6)
        sides = [rng.randrange(3) for _ in range(1 << width)]
        masks = [sum(1 << e for e, side in enumerate(sides) if side == k) for k in (1, 2)]
        if all(masks):
            pairs.append(tuple(StringProperty(width, m) for m in masks))
    for left, right in pairs:
        pair = density(left, right)
        assert density_lower_bound(left, right) == math.ceil(pair.left * pair.right)


def test_parity_three_bound_is_nine():
    assert density_lower_bound(*parity_property(3)) == 9


def test_density_rejects_bad_input():
    left = StringProperty.from_strings(2, ["00"])
    with pytest.raises(InputError):
        density(left, StringProperty(2, 0))
    with pytest.raises(InputError):
        density(left, StringProperty.from_strings(2, ["00", "01"]))
    with pytest.raises(InputError):
        density(left, StringProperty.from_strings(3, ["000"]))


def test_disjunctive_parity_size_and_separation():
    for n in range(1, 9):
        f = parity_dnf(n)
        assert size(f) == n * (1 << (n - 1))
        even, odd = parity_property(n)
        assert separates(f, even, odd)


def test_balanced_parity_sizes():
    for n, expected in ((1, 1), (2, 4), (3, 10), (4, 16), (8, 64)):
        assert size(parity_balanced(n)) == expected


def test_balanced_parity_separates():
    for n in range(1, 9):
        even, odd = parity_property(n)
        assert separates(parity_balanced(n), even, odd)


def test_parity_constructions_agree_pointwise():
    for n in range(1, 7):
        dnf = parity_dnf(n)
        bal = parity_balanced(n)
        for bits in range(1 << n):
            s = BitString(n, bits)
            assert evaluate(dnf, s) == evaluate(bal, s)


def test_parity_range_checks():
    with pytest.raises(InputError):
        parity_dnf(0)
    with pytest.raises(InputError):
        parity_balanced(11)
    with pytest.raises(InputError):
        parity_property(0)


def test_literal_blindness_above_unit_density():
    violations = suites.lemma_literal_blindness(random.Random(101))
    assert violations == []


def test_density_product_subadditive_under_splits():
    violations = suites.lemma_density_subadditivity(random.Random(577))
    assert violations == []
