import itertools
import random

import pytest

from efgames import (
    And,
    BitString,
    InputError,
    Literal,
    Not,
    Or,
    StringProperty,
    Var,
    evaluate,
    format_formula,
    is_nnf,
    parse_formula,
    separates,
    size,
    to_nnf,
    truth_table,
)
from efgames.props import var_mask

PARITY2 = Or(And(Var(1), Var(2)), And(Not(Var(1)), Not(Var(2))))


def test_bitstring_parse_and_bits():
    s = BitString.parse("10")
    assert s.width == 2
    assert s.bit(1) == 1 and s.bit(2) == 0
    assert str(s) == "10"
    assert BitString.parse("0110").weight() == 2


def test_bitstring_rejects_junk():
    with pytest.raises(InputError):
        BitString.parse("10a")
    with pytest.raises(InputError):
        BitString.parse("")
    with pytest.raises(InputError):
        BitString.parse("0" * 17)


def test_property_membership_and_width_check():
    p = StringProperty.from_strings(2, ["10", "11"])
    assert len(p) == 2
    assert BitString.parse("10") in p
    assert BitString.parse("01") not in p
    with pytest.raises(InputError):
        StringProperty.from_strings(2, ["101"])


def test_parse_and_from_strings_share_checks_and_encoding():
    # e(s) read bit by bit, s_1 least significant, for every string of width
    # <= 6 and some of width 16
    rng = random.Random(5)
    texts = [
        "".join(bits)
        for width in range(1, 7)
        for bits in itertools.product("01", repeat=width)
    ]
    texts += ["".join(rng.choice("01") for _ in range(16)) for _ in range(50)]
    for text in texts:
        bits = sum(1 << i for i, c in enumerate(text) if c == "1")
        assert BitString.parse(text) == BitString(len(text), bits)
        prop = StringProperty.from_strings(len(text), [text])
        assert prop == StringProperty(len(text), 1 << bits)
    # what int(text, 2) would accept is still refused, with one message
    junk = {
        "": "not a nonempty binary string: ''",
        "10a": "not a nonempty binary string: '10a'",
        "1_0": "not a nonempty binary string: '1_0'",
        " 10": "not a nonempty binary string: ' 10'",
        "\uff11\uff10": "not a nonempty binary string: '\uff11\uff10'",
        "0" * 17: "string width must be 1..16, got 17",
    }
    for text, message in junk.items():
        for make in (BitString.parse, lambda t: StringProperty.from_strings(2, [t])):
            with pytest.raises(InputError) as err:
                make(text)
            assert str(err.value) == message
    with pytest.raises(InputError, match="^string 101 has width 3, expected 2$"):
        StringProperty.from_strings(2, ["10", "101"])
    with pytest.raises(InputError, match="^string 101 has width 3, expected 2$"):
        StringProperty.from_strings(2, [BitString.parse("101")])


def test_eval_literal_on_first_bit():
    assert evaluate(Var(1), BitString.parse("10"))


def test_eval_conjunction_with_negation():
    f = And(Not(Var(2)), Var(1))
    assert evaluate(f, BitString.parse("10"))


def test_eval_two_bit_parity_rejects_odd_string():
    assert not evaluate(PARITY2, BitString.parse("01"))


def test_eval_rejects_narrow_string():
    with pytest.raises(InputError):
        evaluate(Var(3), BitString.parse("10"))


def test_size_counts_leaves():
    assert size(Var(1)) == 1
    assert size(Not(Var(3))) == 1
    assert size(PARITY2) == 4


def test_nnf_de_morgan():
    f = Not(And(Var(1), Not(Var(2))))
    assert to_nnf(f) == Or(Not(Var(1)), Var(2))


def test_nnf_identity_and_double_negation():
    assert to_nnf(Var(1)) == Var(1)
    assert to_nnf(Not(Not(Var(2)))) == Var(2)


def _random_formula(rng: random.Random, width: int, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.randint(1, width))
    kind = rng.random()
    if kind < 0.4:
        return Not(_random_formula(rng, width, depth - 1))
    left = _random_formula(rng, width, depth - 1)
    right = _random_formula(rng, width, depth - 1)
    return And(left, right) if kind < 0.7 else Or(left, right)


def _negations_only_on_variables(f) -> bool:
    if isinstance(f, Not):
        return isinstance(f.child, Var)
    if isinstance(f, (And, Or)):
        return _negations_only_on_variables(f.left) and _negations_only_on_variables(f.right)
    return isinstance(f, Var)


def test_nnf_preserves_size_and_meaning():
    rng = random.Random(7)
    for _ in range(120):
        width = rng.randint(1, 10)
        f = _random_formula(rng, width, rng.randint(1, 6))
        g = to_nnf(f)
        assert is_nnf(g)
        assert _negations_only_on_variables(g)
        assert size(g) == size(f)
        for bits in range(1 << width):
            s = BitString(width, bits)
            assert evaluate(f, s) == evaluate(g, s)


def test_non_formulas_are_rejected():
    s = BitString.parse("10")
    for bad in ("p1", And(Var(1), 3)):
        with pytest.raises(InputError, match="not a formula node"):
            evaluate(bad, s)
        for helper in (is_nnf, size, format_formula, lambda f: truth_table(f, 2)):
            with pytest.raises(InputError, match="not a formula node"):
                helper(bad)


def test_separates_examples():
    s = StringProperty.from_strings(2, ["10", "11"])
    r = StringProperty.from_strings(2, ["00", "01"])
    assert separates(Var(1), s, r)
    assert not separates(
        Var(1),
        StringProperty.from_strings(2, ["10", "01"]),
        StringProperty.from_strings(2, ["00"]),
    )
    assert separates(
        PARITY2,
        StringProperty.from_strings(2, ["00", "11"]),
        StringProperty.from_strings(2, ["01", "10"]),
    )


def test_separates_needs_matching_width():
    with pytest.raises(InputError):
        separates(
            Var(1),
            StringProperty.from_strings(2, ["10"]),
            StringProperty.from_strings(3, ["000"]),
        )


def test_separation_is_monotone_and_disjoint():
    rng = random.Random(11)
    for _ in range(200):
        width = rng.randint(1, 4)
        f = _random_formula(rng, width, 4)
        table = truth_table(f, width)
        sat = [BitString(width, b) for b in range(1 << width) if table >> b & 1]
        unsat = [BitString(width, b) for b in range(1 << width) if not table >> b & 1]
        if not sat or not unsat:
            continue
        s = StringProperty.from_strings(width, sat)
        r = StringProperty.from_strings(width, unsat)
        assert separates(f, s, r)
        assert s.mask & r.mask == 0
        sub_s = StringProperty(width, s.mask & rng.randrange(1 << (1 << width)))
        sub_r = StringProperty(width, r.mask & rng.randrange(1 << (1 << width)))
        assert separates(f, sub_s, sub_r)


def test_literal_formula_and_holds():
    lit = Literal(2, False)
    assert lit.formula() == Not(Var(2))
    assert lit.holds_on(BitString.parse("10"))
    assert not lit.holds_on(BitString.parse("01"))


def test_format_parse_round_trip():
    rng = random.Random(23)
    for _ in range(150):
        f = to_nnf(_random_formula(rng, 9, 5))
        assert parse_formula(format_formula(f)) == f
    assert format_formula(Or(Var(1), Var(2))) == "(p1 | p2)"
    assert parse_formula("((p1 & p2) | (!p1 & !p2))") == PARITY2


def test_parse_rejects_malformed_text():
    for bad in ("", "p0", "p1 &", "(p1 & p2", "q3", "(p1 && p2)"):
        with pytest.raises(InputError):
            parse_formula(bad)


def test_every_width_one_function_of_two_strings():
    # exhaustive sanity at the smallest width: truth tables of formulas
    # over one variable only ever realize the four unary patterns
    seen = set()
    for f in (Var(1), Not(Var(1)), Or(Var(1), Not(Var(1))), And(Var(1), Not(Var(1)))):
        seen.add(truth_table(f, 1))
    assert seen == {0b10, 0b01, 0b11, 0b00}


def test_string_iteration_matches_membership():
    p = StringProperty.from_strings(2, ["00", "11"])
    listed = sorted(str(s) for s in p.strings())
    assert listed == ["00", "11"]
    assert all(s in p for s in p.strings())
    assert not p.is_empty
    assert StringProperty(2, 0).is_empty


def test_separating_formula_exists_only_for_disjoint():
    # a formula true and false on the same string is impossible
    s = StringProperty.from_strings(2, ["01"])
    r = StringProperty.from_strings(2, ["01", "11"])
    rng = random.Random(3)
    for _ in range(100):
        f = _random_formula(rng, 2, 4)
        assert not separates(f, s, r)


def test_operator_sugar_builds_trees():
    f = (Var(1) & ~Var(2)) | Var(3)
    assert f == Or(And(Var(1), Not(Var(2))), Var(3))


def test_itertools_like_parity_table():
    # parity of two bits as a truth table over width 2: even weight strings
    t = truth_table(PARITY2, 2)
    even = {b for b in range(4) if BitString(2, b).weight() % 2 == 0}
    assert {b for b in range(4) if t >> b & 1} == even


def test_all_two_bit_strings_enumerable():
    strings = [
        "".join(bits) for bits in itertools.product("01", repeat=2)
    ]
    p = StringProperty.from_strings(2, strings)
    assert len(p) == 4


def _var_mask_by_strings(width, i):
    # the definition: one bit per string of the width with s_i = 1
    return sum(1 << e for e in range(1 << width) if e >> (i - 1) & 1)


def test_var_mask_matches_its_definition():
    cases = [(w, i) for w in range(1, 13) for i in range(1, w + 1)]
    for width, i in cases + [(16, 1), (16, 8), (16, 16)]:
        assert var_mask(width, i) == _var_mask_by_strings(width, i), (width, i)
    with pytest.raises(InputError):
        var_mask(3, 4)
