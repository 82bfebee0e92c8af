import hashlib
import itertools
from collections import Counter

import pytest

import suites
from efgames import (
    EMPTY_ASSIGNMENT,
    Assignment,
    FoEnumerator,
    FoMode,
    InputError,
    Model,
    PropGame,
    ResourceCapError,
    StringProperty,
    Structure,
    StructureClass,
    Vocabulary,
    count_functions_up_to,
    fo_enumerate_separator,
    fo_eval,
    fo_free_vars,
    fo_separates,
    fo_size,
    is_existential,
    linear_order,
    linorder_instances,
    min_size_table,
    oracle_minsize,
)

PARITY2_S = StringProperty.from_strings(2, ["00", "11"])
PARITY2_R = StringProperty.from_strings(2, ["01", "10"])


def prop(width, strings):
    return StringProperty.from_strings(width, strings)


def odd_parity_mask(width):
    return sum(1 << e for e in range(1 << width) if e.bit_count() % 2)


def test_width_one_table():
    table = min_size_table(1)
    assert len(table) == 4
    assert table[StringProperty(1, 0b10)] == 1  # p1
    assert table[StringProperty(1, 0b01)] == 1  # not p1
    assert table[StringProperty(1, 0b00)] == 2  # constants need two leaves
    assert table[StringProperty(1, 0b11)] == 2


def test_width_two_size_census():
    # 4 literals; 8 and/or combinations of two literals plus 2 constants;
    # parity and its complement close the count of 16 at size 4
    census = Counter(min_size_table(2).values())
    assert census == {1: 4, 2: 10, 4: 2}


def test_width_three_table_landmarks():
    table = min_size_table(3)
    assert len(table) == 256
    census = Counter(table.values())
    assert census[1] == 6
    # two distinct variables, four polarity choices, and or or, plus the
    # two constants
    assert census[2] == 26
    assert max(census) == 10


def test_parity_sizes():
    assert min_size_table(2)[StringProperty(2, odd_parity_mask(2))] == 4
    table3 = min_size_table(3)
    odd = odd_parity_mask(3)
    assert table3[StringProperty(3, odd)] == 10
    assert table3[StringProperty(3, 255 ^ odd)] == 10


def permuted_table(t, width, perm):
    out = 0
    for e in range(1 << width):
        if t >> e & 1:
            out |= 1 << sum((e >> i & 1) << p for i, p in enumerate(perm))
    return out


def test_sizes_invariant_under_variable_renaming():
    for n in (2, 3):
        sizes = {t.mask: s for t, s in min_size_table(n).items()}
        for perm in itertools.permutations(range(n)):
            for t, s in sizes.items():
                assert sizes[permuted_table(t, n, perm)] == s


def test_sizes_invariant_under_input_flips():
    # substituting the complement of a variable only swaps literal
    # polarities, so sizes survive xor-ing the inputs
    sizes = {t.mask: s for t, s in min_size_table(3).items()}
    for c in range(8):
        for t, s in sizes.items():
            flipped = 0
            for e in range(8):
                if t >> e & 1:
                    flipped |= 1 << (e ^ c)
            assert sizes[flipped] == s


def test_sizes_invariant_under_output_complement():
    for n in (1, 2, 3):
        sizes = {t.mask: s for t, s in min_size_table(n).items()}
        full = (1 << (1 << n)) - 1
        for t, s in sizes.items():
            assert sizes[t ^ full] == s


def test_minsize_respects_parity():
    assert oracle_minsize(PARITY2_S, PARITY2_R) == 4


def test_minsize_single_literal():
    assert oracle_minsize(prop(2, ["11"]), prop(2, ["00"])) == 1


def test_minsize_overlap_is_none():
    assert oracle_minsize(prop(2, ["01"]), prop(2, ["01", "11"])) is None


def test_minsize_exploits_dont_cares():
    # the exact function {00, 11} is parity and would cost 4; leaving the
    # unconstrained fourth string free admits a two-literal cover
    assert oracle_minsize(prop(2, ["00", "11"]), prop(2, ["01"])) == 2


def test_minsize_empty_sides_match_game():
    game = PropGame(2)
    empty = StringProperty(2, 0)
    for other in (prop(2, ["10"]), prop(2, ["00", "01", "10", "11"])):
        assert oracle_minsize(empty, other) == game.minsize(empty, other)
        assert oracle_minsize(other, empty) == game.minsize(other, empty)


def test_count_functions_thresholds():
    assert count_functions_up_to(0, 2) == 0
    assert count_functions_up_to(1, 2) == 4
    assert count_functions_up_to(4, 2) == 16
    prev = 0
    for m in range(11):
        cur = count_functions_up_to(m, 3)
        assert cur >= prev
        prev = cur
    assert prev == 256  # every width-3 function in reach by size 10


def test_count_stays_under_formula_count():
    # crude shape count: each of the <= m leaves picks a polarity and a
    # variable-or-constant, each join picks a connective
    for n in (1, 2, 3):
        for m in range(1, 11):
            assert count_functions_up_to(m, n) <= 2**m * (n + 2) ** (2 * m)


def test_oracle_validates_input():
    with pytest.raises(ResourceCapError):
        min_size_table(4)
    with pytest.raises(InputError):
        min_size_table(0)
    with pytest.raises(ResourceCapError):
        oracle_minsize(StringProperty(4, 1), StringProperty(4, 2))
    with pytest.raises(InputError):
        oracle_minsize(prop(2, ["00"]), prop(3, ["000"]))
    with pytest.raises(InputError):
        count_functions_up_to(-1, 2)
    with pytest.raises(ResourceCapError):
        count_functions_up_to(1, 4)


def test_string_property_validation():
    with pytest.raises(InputError):
        StringProperty(0, 0)
    with pytest.raises(InputError):
        StringProperty(2, 1 << 4)
    with pytest.raises(InputError):
        StringProperty(2, -1)


def test_enumerated_order_separator():
    left, right = linorder_instances(2)
    f = fo_enumerate_separator(left, right, 3, FoMode.EXISTENTIAL)
    assert f is not None
    assert fo_size(f) == 3
    assert is_existential(f)
    assert fo_separates(f, left, right)
    assert fo_enumerate_separator(left, right, 2) is None


def test_enumeration_identical_classes():
    left, _ = linorder_instances(2)
    assert fo_enumerate_separator(left, left, 4) is None


def test_enumerator_consistent_across_size_bounds(tiny_fo_suite):
    # whatever the size-4 run reported, the size-2 run must find exactly
    # the separators of size <= 2, with sound output
    models, classes = suites.tiny_fo_universe()
    pairs = [(a, b) for a in classes for b in classes]
    for mode in (FoMode.EXISTENTIAL, FoMode.FULL):
        small = FoEnumerator(models, (), 2, mode)
        _, records = tiny_fo_suite[mode]
        assert len(records) == len(pairs)
        for (a, b), rec in zip(pairs, records):
            assert (a, b) == (rec.left, rec.right)
            f = small.separator(a, b)
            if f is None:
                assert rec.enum_best is None or rec.enum_best > 2
            else:
                assert fo_size(f) == rec.enum_best
                assert fo_separates(f, a, b)
                if mode is FoMode.EXISTENTIAL:
                    assert is_existential(f)


def test_enumerator_caps():
    unary = Vocabulary.make(("P1", 1))
    tiny = Model.make(unary, 1)
    wide = Vocabulary.make(("P1", 1), ("P2", 1), ("P3", 1))
    with pytest.raises(ResourceCapError):
        FoEnumerator([Model.make(wide, 1)], (), 1)
    with pytest.raises(ResourceCapError):
        FoEnumerator([Model.make(Vocabulary.make(("T", 3)), 1)], (), 1)
    with pytest.raises(ResourceCapError):
        FoEnumerator([linear_order(4)], (), 1)
    with pytest.raises(ResourceCapError):
        FoEnumerator([tiny], (), 5)
    with pytest.raises(InputError):
        FoEnumerator([tiny], (), 0)
    with pytest.raises(InputError):
        FoEnumerator([], (), 1)
    with pytest.raises(InputError):
        FoEnumerator([tiny, linear_order(2)], (), 1)


def test_separator_validates_classes():
    models, _ = suites.tiny_fo_universe()
    structs = [Structure(m, EMPTY_ASSIGNMENT) for m in models]
    enum = FoEnumerator(models, (), 2)
    single = StructureClass.of(structs[:1])
    with pytest.raises(ResourceCapError):  # member cap
        enum.separator(StructureClass.of(structs[:4]), single)
    shifted = StructureClass.of([Structure(models[1], Assignment.make({0: 0}))])
    with pytest.raises(InputError):  # domain differs from the enumerator's
        enum.separator(shifted, shifted)
    order = StructureClass.of([Structure(linear_order(2), EMPTY_ASSIGNMENT)])
    with pytest.raises(InputError):  # vocabulary mismatch between the classes
        enum.separator(single, order)
    scoped = FoEnumerator(models[:2], (), 2)
    with pytest.raises(InputError):  # member model outside the enumerator scope
        scoped.separator(single, StructureClass.of([structs[3]]))


def test_enumerate_separator_needs_a_model():
    vocab = Vocabulary.make(("P1", 1))
    empty = StructureClass.of((), vocabulary=vocab, domain=frozenset())
    with pytest.raises(InputError):
        fo_enumerate_separator(empty, empty, 2)


def _unpruned_layers(enum):
    # the whole enumeration up to w_max: no formula is dropped for its free
    # variables outside the domain
    return enum._enumerate(enum.w_max, 0)


def test_packed_bitmaps_match_evaluation():
    # mixed universe sizes give every model block its own strides; each
    # formula's bit for (model, pool assignment) must be its truth there
    models = [linear_order(n) for n in (1, 2, 3)]
    for mode in (FoMode.EXISTENTIAL, FoMode.FULL):
        enum = FoEnumerator(models, (0,), 2, mode)
        points = [
            Structure(mo, Assignment.make(zip(enum.pool, values)))
            for mo in models
            for values in itertools.product(range(mo.universe_size), repeat=len(enum.pool))
        ]
        bits = [enum._member_bit(st) for st in points]
        assert sorted(bits) == list(range(len(points)))
        for layer in _unpruned_layers(enum):
            for f, fmap, free in layer:
                assert free == sum(1 << enum.pool.index(v) for v in fo_free_vars(f))
                for st, bit in zip(points, bits):
                    assert bool(fmap >> bit & 1) == fo_eval(f, st), (f, st)


def _layers_digest(layers):
    h = hashlib.sha256()
    for layer in layers:
        for f, _, _ in layer:
            h.update(f"{f!r}\t{sorted(fo_free_vars(f))}\n".encode())
        h.update(b"\n")
    return h.hexdigest()


def test_tiny_universe_layers_are_pinned():
    # every formula and free set, in order: a change to the bitmap layout,
    # the pair loops or the dedup key must not reorder, add or drop one
    models, _ = suites.tiny_fo_universe()
    pinned = [
        (FoMode.EXISTENTIAL, 4, [28, 348, 3767, 35656],
         "a0130384cf5d560d7c2e61fbdd450a0c4d7c2b1b05e11a2964f2e792b3556a57"),
        (FoMode.FULL, 3, [18, 130, 684],
         "a864f54d5fd1f570a9eb1fb864be411c8cc5c6f6461a46a8bb1bc21db91e2cc8"),
    ]
    for mode, w_max, sizes, digest in pinned:
        layers = _unpruned_layers(FoEnumerator(models, (), w_max, mode))
        assert [len(layer) for layer in layers] == sizes
        assert _layers_digest(layers) == digest


def _unpruned_legal(enum):
    # the legal formulas as the whole enumeration yields them: free
    # variables inside the domain, the first formula per bitmap
    legal = {}
    for layer in _unpruned_layers(enum):
        for f, fmap, free in layer:
            if not free & enum._outside and fmap not in legal:
                legal[fmap] = f
    return [(fmap, repr(f)) for fmap, f in legal.items()]


def test_pruned_enumeration_keeps_every_legal_formula():
    # a size-m formula with j free variables outside the domain sits only
    # inside legal formulas of size >= m + j, so pruning the rest must
    # leave the separator candidates, and their order, as they were
    models, _ = suites.tiny_fo_universe()
    configs = [(models, (), w_max) for w_max in (1, 2, 3, 4)]
    configs += [
        ([linear_order(n)], domain, 3) for n in (1, 2, 3) for domain in ((0,), (0, 1))
    ]
    for mode in (FoMode.EXISTENTIAL, FoMode.FULL):
        for ms, domain, w_max in configs:
            enum = FoEnumerator(ms, domain, w_max, mode)
            pruned = [(fmap, repr(f)) for fmap, f in enum._legal]
            assert pruned == _unpruned_legal(enum), (mode, domain, w_max)
    pinned = [
        (FoMode.EXISTENTIAL, [28, 164, 41, 5], 10),
        (FoMode.FULL, [28, 170, 82, 14], 22),
    ]
    for mode, sizes, n_legal in pinned:
        enum = FoEnumerator(models, (), 4, mode)
        assert [len(layer) for layer in enum._enumerate(4, enum._outside)] == sizes
        assert len(enum._legal) == n_legal


def test_separator_never_builds_the_unpruned_layers(monkeypatch):
    outsides = []
    enumerate_layers = FoEnumerator._enumerate

    def recording(self, w_max, outside):
        outsides.append(outside)
        return enumerate_layers(self, w_max, outside)

    monkeypatch.setattr(FoEnumerator, "_enumerate", recording)
    models, classes = suites.tiny_fo_universe()
    enum = FoEnumerator(models, (), 4, FoMode.FULL)
    for a, b in itertools.product(classes[:4], repeat=2):
        f = enum.separator(a, b)
        assert f is None or fo_separates(f, a, b)
    assert outsides == [enum._outside] and enum._outside


# Per mode: 500 seeded queries, seed 1 in both modes, so that both modes ask
# the same classes.  Structures have 1-2 elements and w_max is 3: there the
# whole batch takes about 0.3 s, and no default cap stops a query (with 3
# elements and w_max 4, rank-2 choice scans pass the caps and one batch can
# take minutes).  The tally of the oracle's sizes shows that every answer
# from 1 to "none up to 3" is asked.
BINARY_BATCHES = [
    (FoMode.FULL, {1: 61, 2: 144, 3: 75, None: 220}),
    (FoMode.EXISTENTIAL, {1: 61, 2: 86, 3: 44, None: 309}),
]


@pytest.mark.parametrize("mode, tally", BINARY_BATCHES, ids=["full", "existential"])
def test_the_game_matches_the_oracle_on_binary_vocabularies(mode, tally):
    violations, capped, got = suites.binary_oracle_batch(1, mode, 500)
    assert violations == []
    # queries a cap stops are counted, not skipped: none at these sizes
    assert capped == 0
    assert got == tally
