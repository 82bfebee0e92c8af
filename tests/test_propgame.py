import itertools
import random

import pytest

import suites
from efgames import propgame
from efgames import (
    And,
    BitString,
    ContractError,
    GameMode,
    InputError,
    LeftSplit,
    Literal,
    Not,
    Or,
    Player,
    PropGame,
    PropPosition,
    ResourceCapError,
    RightSplit,
    StringProperty,
    Var,
    WinClaim,
    format_formula,
    formula_strategy_move,
    literal_win,
    oracle_minsize,
    parity_property,
    separates,
    size,
    successors,
    to_nnf,
)

PARITY2_S = StringProperty.from_strings(2, ["00", "11"])
PARITY2_R = StringProperty.from_strings(2, ["01", "10"])


def prop(width, strings):
    return StringProperty.from_strings(width, strings)


def all_pairs(width):
    """Every disjoint nonempty (S, R) over all strings of the width."""
    strings = ["".join(b) for b in itertools.product("01", repeat=width)]
    for assign in itertools.product((0, 1, 2), repeat=len(strings)):
        s = [x for x, a in zip(strings, assign) if a == 0]
        r = [x for x, a in zip(strings, assign) if a == 1]
        if s and r:
            yield prop(width, s), prop(width, r)


def test_literal_win_one_bit():
    assert literal_win(prop(1, ["1"]), prop(1, ["0"])) == Literal(1, True)


def test_literal_win_blocked_by_parity():
    assert literal_win(PARITY2_S, PARITY2_R) is None


def test_literal_win_vacuous_empty_side():
    lit = literal_win(StringProperty(2, 0), prop(2, ["10"]))
    assert lit == Literal(1, False)
    assert separates(lit.formula(), StringProperty(2, 0), prop(2, ["10"]))


def test_winner_rank_one_literal():
    game = PropGame(1)
    pos = PropPosition(1, prop(1, ["1"]), prop(1, ["0"]))
    assert game.winner(pos, GameMode.EXACT) is Player.I
    assert game.winner(pos, GameMode.REDUCED) is Player.I


def test_winner_parity_threshold():
    game = PropGame(2)
    for mode in GameMode:
        assert game.winner(PropPosition(3, PARITY2_S, PARITY2_R), mode) is Player.II
        assert game.winner(PropPosition(4, PARITY2_S, PARITY2_R), mode) is Player.I


def test_minsize_single_literal():
    assert PropGame(1).minsize(prop(1, ["0"]), prop(1, ["1"])) == 1


def test_minsize_parity_two():
    assert PropGame(2).minsize(PARITY2_S, PARITY2_R) == 4


def test_minsize_overlap_is_inseparable():
    assert PropGame(2).minsize(prop(2, ["01"]), prop(2, ["01", "11"])) is None


def test_minsize_empty_sides():
    game = PropGame(2)
    # a literal false everywhere on the right handles an empty left side
    assert game.minsize(StringProperty(2, 0), prop(2, ["10"])) == 1
    # no literal is false on every string, so a contradiction is needed
    full = StringProperty.from_strings(2, ["00", "01", "10", "11"])
    assert game.minsize(StringProperty(2, 0), full) == 2


def test_value_rejects_masks_outside_the_width():
    # on an empty game, and on one whose fill (parity 2: S = 0b1001, R =
    # 0b0110) is looked up first, so a bad pair must not pass for a cell
    filled = PropGame(2)
    filled.minsize(PARITY2_S, PARITY2_R)
    s, r = PARITY2_S.mask, PARITY2_R.mask
    for game in (PropGame(2), filled):
        entries = game.table_entries
        for smask, rmask in (
            (1 << 5, 1), (1, 1 << 4), (-1, 0), (0, -2),
            (s | 1 << 4, r), (s, r | 1 << 6), (-1, r), (s, -1), (-s, r), (s, ~s),
        ):
            with pytest.raises(InputError):
                game.value(smask, rmask)
        for smask, rmask in ((0b0011, 0b0110), (s, r | 1), (s | 2, r), (s, s)):
            with pytest.raises(ContractError):
                game.value(smask, rmask)
        assert game.table_entries == entries


EVERY_4 = (1 << 8) - 1  # every literal at width 4


def _random_roots(rng, width, sizes):
    """One disjoint (S, R) mask pair per (|S|, |R|) in sizes."""
    roots = []
    for ns, nr in sizes:
        strings = rng.sample(range(1 << width), ns + nr)
        roots.append(
            (sum(1 << e for e in strings[:ns]), sum(1 << e for e in strings[ns:]))
        )
    return roots


def test_size_table_matches_reference_on_every_pair_at_widths_one_and_two():
    for width in (1, 2):
        n = 1 << (1 << width)
        for smask in range(n):
            for rmask in range(n):
                if not smask & rmask:
                    assert suites.size_table_mismatches(width, [(smask, rmask)]) == []


def test_size_table_matches_reference_on_random_pairs():
    rng = random.Random(97)
    sizes = {
        3: [(1, 7), (7, 1), (4, 4), (3, 5), (2, 3)]
        + [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(20)],
        4: [(1, 13), (13, 1), (6, 6), (2, 11), (9, 4), (5, 3)],
    }
    for width, shapes in sizes.items():
        for root in _random_roots(rng, width, shapes):
            assert suites.size_table_mismatches(width, [root]) == []


def test_size_table_matches_reference_with_lazy_halves():
    # the fill walks each cell's halves as bit masks as it goes, with no
    # table of halves; 1 vs 13 and 13 vs 1 walk the most of them
    rng = random.Random(99)
    shapes = [(1, 13), (13, 1), (6, 6), (2, 3)]
    for root in _random_roots(rng, 4, shapes):
        assert suites.size_table_mismatches(4, [root]) == []


@pytest.mark.parametrize("s_outer", [True, False])
def test_size_table_matches_reference_along_either_side(monkeypatch, s_outer):
    monkeypatch.setattr(propgame, "_outer_first", lambda n1, n2: s_outer)
    rng = random.Random(96)
    # 1-vs-k and k-vs-1 roots skip one of the write loops of the fill
    shapes = [(1, 13), (13, 1), (2, 11), (5, 7), (6, 6), (7, 7), (1, 3), (3, 1)]
    for root in _random_roots(rng, 4, shapes):
        assert suites.size_table_mismatches(4, [root]) == []


@pytest.mark.parametrize("k", range(11))
def test_halves_pair_each_half_with_its_complement(k):
    """Every cell (o, i) that _fill_lines fills along a side of k strings is
    1 where a literal separates it, else the least sum over the splits of o
    and of i, each half h (holding the lowest member) against its
    complement ^ h, recomputed from the filled cells.  That recurrence
    defines the size table, so the cells are right without a reference."""
    rng = random.Random(k)
    strings = rng.sample(range(16), k + 3)
    game = PropGame(4)
    few, many = sum(1 << e for e in strings[:3]), sum(1 << e for e in strings[3:])
    # the k-string side is S at even k and R at odd k, inner either way
    flips = (0, EVERY_4) if k % 2 else (EVERY_4, 0)
    out_lits = propgame._subset_lits(game._member_lits(few, flips[0]), EVERY_4)
    in_members = game._member_lits(many, flips[1])
    in_lits = propgame._subset_lits(in_members, EVERY_4)
    cells, _ = propgame._fill_lines(out_lits, in_members, 4 * min(3, k))
    n_in = len(in_lits)
    for o in range(len(out_lits)):
        for i in range(n_in):
            if out_lits[o] & in_lits[i]:
                want = 1
            else:
                want = min(
                    [cells[h * n_in + i] + cells[c * n_in + i] for h, c in _splits(o)]
                    + [cells[o * n_in + h] + cells[o * n_in + c] for h, c in _splits(i)]
                )
            assert cells[o * n_in + i] == want, (o, i)


def _positions_telling_apart(width, s, members):
    """Per subset of members (bit j for members[j]), the fewest bit positions
    such that every string of the subset differs from the width-bit string s
    at one of them, by brute force over position sets in order of size."""
    fewest = [None] * (1 << len(members))
    for k in range(width + 1):
        for positions in itertools.combinations(range(width), k):
            mask = sum(1 << p for p in positions)
            told = sum(1 << j for j, b in enumerate(members) if (b ^ s) & mask)
            for i in suites._submasks(told):
                if fewest[i] is None:
                    fewest[i] = k
        if None not in fewest:
            return fewest


def test_one_string_against_many_costs_the_positions_that_tell_them_apart():
    """value({s}, B) is the fewest positions at which every string of B
    differs from s.  Take a minimal separator in negation normal form, which
    keeps the size.  A disjunct true on s separates alone, so it is no
    disjunction; the two conjuncts of a conjunction are true on s and
    separate s from the strings of B that each one falsifies, so by
    induction a minimal separator is a conjunction of literals true on s.
    Such a literal is false on b exactly when b differs from s at its
    position, and one literal per position of a hitting set separates.
    Mirrored, value(B, {s}) is the same, by negating the separator.  At
    1 vs 15 strings this is the most lopsided root the default cap admits."""
    rng = random.Random(92)
    roots = [(s, [b for b in range(16) if b != s]) for s in (0, 9)]
    for _ in range(12):
        s, *others = rng.sample(range(16), rng.randint(2, 16))
        roots.append((s, others))
    for s, others in roots:
        want = _positions_telling_apart(4, s, others)[-1]
        if len(others) == 15:
            assert want == 4
        game = PropGame(4)
        one, many = StringProperty(4, 1 << s), StringProperty(4, sum(1 << b for b in others))
        assert game.minsize(one, many) == want
        assert game.minsize(many, one) == want


@pytest.mark.parametrize("s_outer", [True, False])
def test_one_member_lines_cost_the_positions_that_tell_them_apart(monkeypatch, s_outer):
    """Every cell of a line whose outer index holds one string s is
    value({s}, B) or value(B, {s}) for the inner subset B: by the test
    above, the fewest positions at which every string of B differs from s,
    counted here from the strings, and 1 for B empty (one literal)."""
    monkeypatch.setattr(propgame, "_outer_first", lambda n1, n2: s_outer)
    rng = random.Random(93)
    shapes = {
        2: [(1, 2), (2, 2), (1, 3), (3, 1)],
        3: [(1, 7), (2, 5), (4, 4), (6, 2)],
        4: [(1, 13), (13, 1), (3, 6), (7, 5)],
        5: [(1, 11), (4, 7), (9, 3)],
        16: [(3, 5)],
    }
    for width, sizes in shapes.items():
        for smask, rmask in _random_roots(rng, width, sizes):
            game = PropGame(width)
            game.value(smask, rmask)
            (fill,) = game._value.fills
            outer, inner = (suites.compact_masks(m) for m in (fill.smask, fill.rmask))
            if not s_outer:
                outer, inner = inner, outer
            # a side's members, in the order of their bits in its indices
            members = [inner[1 << j].bit_length() - 1 for j in range(len(inner).bit_length() - 1)]
            for m in range(len(outer).bit_length() - 1):
                s = outer[1 << m].bit_length() - 1
                want = _positions_telling_apart(width, s, members)
                cells = [(1 << m, i) if s_outer else (i, 1 << m) for i in range(len(inner))]
                got = [fill.size(*cell) for cell in cells]
                assert got == [max(1, k) for k in want], (width, smask, rmask, m)


def _splits(m):
    """The (half, complement) pairs of m, each half holding m's lowest member."""
    low = m & -m
    rest = m ^ low
    return [(low | y, rest ^ y) for y in suites._submasks(rest) if y != rest]


def _fold_exits(cells, out_lits, in_lits):
    """(met, scanned): the cells of a walked fill whose inner fold stops at a
    split that meets the cell's bound, and those whose fold reads every
    half, recomputed from the cells with the fill's bounds."""
    n_in = len(in_lits)
    met = scanned = 0
    for o in range(1, len(out_lits)):
        line = cells[o * n_in : (o + 1) * n_in]
        members = [1 << t for t in range(o.bit_length()) if o >> t & 1]
        for i in range(1, n_in):
            j, k = i & i - 1, i ^ 1 << i.bit_length() - 1
            if not j or out_lits[o] & in_lits[i]:
                continue
            column = cells[i::n_in]
            best = min(
                [column[h] + column[c] for h, c in _splits(o)]
                + [line[j] + line[i ^ j], line[k] + line[i ^ k]]
            )
            least = max([column[o ^ m] for m in members] + [line[j], line[k]])
            if best > least:
                inner = min(line[h] + line[c] for h, c in _splits(i))
                met += inner == least
                scanned += inner > least
    return met, scanned


@pytest.mark.parametrize("s_outer", [True, False])
def test_fill_lines_match_reference_where_folds_stop_early_or_read_every_half(s_outer):
    # along either side, these roots have cells that a fold stopping one
    # above the bound, or at its first split below the best, gets wrong
    rng = random.Random(154)
    game, ref = PropGame(4), suites.reference_sizes(4)
    for smask, rmask in _random_roots(rng, 4, [(7, 6), (6, 9)]):
        s_members = game._member_lits(smask, 0)
        r_members = game._member_lits(rmask, EVERY_4)
        s_masks, r_masks = suites.compact_masks(smask), suites.compact_masks(rmask)
        ub = 4 * min(smask.bit_count(), rmask.bit_count())
        if s_outer:
            outer, inner = s_members, r_members
            want = [ref.value(a, b) for a in s_masks for b in r_masks]
        else:
            outer, inner = r_members, s_members
            want = [ref.value(a, b) for b in r_masks for a in s_masks]
        out_lits, in_lits = (propgame._subset_lits(m, EVERY_4) for m in (outer, inner))
        cells, _ = propgame._fill_lines(out_lits, inner, ub)
        assert list(cells) == want
        # the roots exercise both ways out of the fold
        met, scanned = _fold_exits(cells, out_lits, in_lits)
        assert met > 0 and scanned > 0, (met, scanned)


def test_lines_run_along_the_side_that_costs_less():
    # 1 vs 13 strings: along the 1-string side the one line is a hitting
    # set built lane-wise with no fold, against 3**13 / 2 lane-wise mins
    # along the other; 2 vs 6 also runs along its small side, and
    # near-balanced pairs run along the larger side
    assert propgame._outer_first(1 << 1, 1 << 13)
    assert not propgame._outer_first(1 << 13, 1 << 1)
    assert propgame._outer_first(1 << 2, 1 << 6)
    assert not propgame._outer_first(1 << 6, 1 << 2)
    assert not propgame._outer_first(1 << 6, 1 << 7)
    assert propgame._outer_first(1 << 7, 1 << 6)


def test_lanes_are_sized_from_the_size_bound():
    # two sizes up to ub must sum below the lane's guard bit; the cells are
    # one member a side, separated by the one literal
    cells, _ = propgame._fill_lines([1, 1], [1], 16383)
    assert list(cells) == [1, 1, 1, 1]
    with pytest.raises(ResourceCapError):
        propgame._fill_lines([1, 1], [1], 16384)


def test_size_table_matches_reference_with_sixteen_bit_lanes():
    # roots at width 16, the widest a PropGame takes
    rng = random.Random(95)
    roots = _random_roots(rng, 16, [(5, 5), (4, 6)])
    assert suites.size_table_mismatches(16, roots) == []


def test_size_table_matches_reference_with_empty_sides():
    for width in (3, 4):
        full = (1 << (1 << width)) - 1
        for root in ((0, 0), (0, full), (full, 0), (0, 0b1011), (0b0110, 0)):
            assert suites.size_table_mismatches(width, [root]) == []


def test_shared_size_table_matches_reference_over_several_roots():
    rng = random.Random(98)
    for width, shapes in (
        (3, [(2, 2), (4, 4), (3, 3), (1, 6), (5, 2)]),
        (4, [(3, 3), (6, 5), (2, 2), (4, 8), (7, 1)]),
    ):
        roots = _random_roots(rng, width, shapes)
        # a sub-position and a super-position of an earlier root
        smask, rmask = roots[1]
        roots.append((smask & (smask - 1), rmask))
        roots.append((smask, rmask | roots[0][1] & ~smask))
        assert suites.size_table_mismatches(width, roots) == []


def test_shared_table_count_is_kept_when_a_fill_is_added(monkeypatch):
    # the count is each fill's cells with both sides nonempty, read from its
    # root masks, so reading it locates no cell, and a root answered without
    # a fill leaves it as it was
    calls = 0
    locate = propgame._Fill.locate

    def counting_locate(self, smask, rmask):
        nonlocal calls
        calls += 1
        return locate(self, smask, rmask)

    monkeypatch.setattr(propgame._Fill, "locate", counting_locate)
    rng = random.Random(98)
    for width, shapes in ((3, [(2, 2), (4, 4), (3, 3)]), (4, [(3, 3), (6, 5), (4, 8)])):
        roots = _random_roots(rng, width, shapes)
        smask, rmask = roots[1]
        # roots answered without a fill: a literal win inside a later root,
        # asked before that root and again after it, and an empty side
        lit_win = (smask & -smask, rmask & -rmask)
        roots[:0] = [lit_win, (0, rmask)]
        roots.append((smask & (smask - 1), rmask))
        roots.append((smask, rmask | roots[2][1] & ~smask))
        roots.append(lit_win)
        game = PropGame(width)
        table = game._value
        for root in roots:
            before = game.table_entries
            game.value(*root)
            calls = 0
            entries = game.table_entries
            assert calls == 0
            assert entries == sum(
                ((1 << fill.smask.bit_count()) - 1) * ((1 << fill.rmask.bit_count()) - 1)
                for fill in table.fills
            )
            if root in (lit_win, (0, rmask)):
                assert entries == before
        assert len(table.fills) > 1
        assert table.locate(*lit_win) is not None


def test_table_entries_count_every_cell_of_a_fill():
    # every cell with both sides nonempty counts, 3 * 3 of them; a count of
    # the positions a top-down search from the root visits would read 7, as
    # literals separate ({001}, R), (S, {100}) and (S, {010}), so the search
    # never reaches ({001}, {100}) or ({001}, {010})
    left, right = prop(3, ["000", "001"]), prop(3, ["100", "010"])
    game = PropGame(3)
    assert game.minsize(left, right) == 2
    assert game.table_entries == 9
    for smask in suites.compact_masks(left.mask)[1:]:
        for rmask in suites.compact_masks(right.mask)[1:]:
            sub_left, sub_right = StringProperty(3, smask), StringProperty(3, rmask)
            k = game.minsize(sub_left, sub_right)
            assert k == PropGame(3).minsize(sub_left, sub_right)
            assert game.synthesize(sub_left, sub_right, k) is not None
    assert game.table_entries == 9 and len(game._value.fills) == 1


# roots fixed by hypercube maps other than the identity, whose fills gather
# lines from symmetric ones
SYMMETRIC_ROOTS = [
    *(parity_property(n) for n in (2, 3, 4)),
    (prop(4, ["0000", "1111"]), prop(4, ["1100", "1010", "1001", "0110", "0101", "0011"])),
    # fixed only by flipping p4
    (
        prop(4, ["0100", "0110", "0111", "1001", "0101", "1000"]),
        prop(4, ["0001", "1111", "1010", "0000", "1011", "1110"]),
    ),
    # fixed only by swapping p3 and p4
    (
        prop(4, ["1001", "1010", "0101", "1000", "0000", "0110"]),
        prop(4, ["1011", "0100", "0011", "1101", "0111", "1110"]),
    ),
]


def _hypercube_maps(width):
    """Every permutation of the variables with every set of flips, as the
    images of the 2**width strings."""
    for perm in itertools.permutations(range(width)):
        for flips in range(1 << width):
            yield [
                flips ^ sum((e >> i & 1) << t for i, t in enumerate(perm))
                for e in range(1 << width)
            ]


def _image(mask, images):
    return sum(1 << x for e, x in enumerate(images) if mask >> e & 1)


def _member_perms(smask, rmask, images):
    """A map of strings that fixes both sides as the permutations of their
    members, S then R, each side numbered in ascending order: member j goes
    to member perm[j]."""
    return tuple(
        [
            (mask & (1 << images[e]) - 1).bit_count()
            for e in range(len(images))
            if mask >> e & 1
        ]
        for mask in (smask, rmask)
    )


def _brute_stabilizer(width, smask, rmask):
    identity = list(range(1 << width))
    return [
        _member_perms(smask, rmask, images)
        for images in _hypercube_maps(width)
        if images != identity
        and _image(smask, images) == smask
        and _image(rmask, images) == rmask
    ]


def test_stabilizer_holds_every_map_that_fixes_both_sides():
    for left, right in SYMMETRIC_ROOTS:
        maps = propgame._stabilizer(left.width, left.mask, right.mask)
        assert maps
        for s_perm, r_perm in maps:
            assert sorted(s_perm) == list(range(len(left)))
            assert sorted(r_perm) == list(range(len(right)))
        assert sorted(maps) == sorted(_brute_stabilizer(left.width, left.mask, right.mask))
    even, odd = parity_property(4)
    assert len(propgame._stabilizer(4, even.mask, odd.mask)) == 191
    flip_root, swap_root = SYMMETRIC_ROOTS[-2:]
    flip_p4 = [e ^ 8 for e in range(16)]
    swap_p3_p4 = [e & 3 | (e >> 1 & 4) | (e << 1 & 8) for e in range(16)]
    for (left, right), images in ((flip_root, flip_p4), (swap_root, swap_p3_p4)):
        maps = propgame._stabilizer(4, left.mask, right.mask)
        assert maps == [_member_perms(left.mask, right.mask, images)]


def test_stabilizer_matches_every_hypercube_map_on_random_roots():
    # random pairs are often symmetric at these widths, so the search is
    # held to the brute force rather than to an empty answer
    rng = random.Random(94)
    empty = 0
    for width in (2, 3, 4):
        for _ in range(30):
            left, right = suites.random_property_pair(rng, width)
            maps = propgame._stabilizer(width, left.mask, right.mask)
            assert sorted(maps) == sorted(_brute_stabilizer(width, left.mask, right.mask))
            empty += not maps
    assert empty >= 30


# each id keeps a second part from a cache cap that the cases once also set
@pytest.mark.parametrize(
    "s_outer",
    [
        pytest.param(True, id="True-15"),
        pytest.param(False, id="False-15"),
        pytest.param(None, id="None-2"),
    ],
)
def test_size_table_matches_reference_on_symmetric_roots(monkeypatch, s_outer):
    # the search would not pay below 13 strings; run it on every root
    monkeypatch.setattr(propgame, "_symmetry_pays", lambda width, n_strings: True)
    if s_outer is not None:
        monkeypatch.setattr(propgame, "_outer_first", lambda n1, n2: s_outer)
    for left, right in SYMMETRIC_ROOTS:
        assert suites.size_table_mismatches(left.width, [(left.mask, right.mask)]) == []


def test_derived_lines_equal_walked_lines():
    for left, right in SYMMETRIC_ROOTS:
        game = PropGame(left.width)
        every = (1 << 2 * left.width) - 1
        s_lits = game._member_lits(left.mask, 0)
        r_lits = game._member_lits(right.mask, every)
        ub = left.width * min(len(left), len(right))
        maps = propgame._stabilizer(left.width, left.mask, right.mask)
        swapped = [(r, s) for s, r in maps]
        for outer, inner, side_maps in ((s_lits, r_lits, maps), (r_lits, s_lits, swapped)):
            out_lits = propgame._subset_lits(outer, every)
            walked, none = propgame._fill_lines(out_lits, inner, ub)
            cells, derived = propgame._fill_lines(out_lits, inner, ub, side_maps)
            assert none == 0
            assert derived > 0
            assert cells == walked


def test_fill_lines_do_not_depend_on_the_order_of_the_maps():
    # a line may be derived through another map of its orbit, but a
    # symmetry keeps every size, so the cells cannot change
    rng = random.Random(11)
    for left, right in [parity_property(4), *SYMMETRIC_ROOTS[-2:]]:
        game = PropGame(4)
        s_lits = game._member_lits(left.mask, 0)
        r_lits = game._member_lits(right.mask, EVERY_4)
        ub = 4 * min(len(left), len(right))
        maps = propgame._stabilizer(4, left.mask, right.mask)
        swapped = [(r, s) for s, r in maps]
        for outer, inner, side_maps in ((s_lits, r_lits, maps), (r_lits, s_lits, swapped)):
            out_lits = propgame._subset_lits(outer, EVERY_4)
            expected = propgame._fill_lines(out_lits, inner, ub, side_maps)
            for order in (side_maps[::-1], rng.sample(side_maps, len(side_maps))):
                assert propgame._fill_lines(out_lits, inner, ub, order) == expected


def test_derived_lines_are_counted():
    even, odd = parity_property(4)
    game = PropGame(4)
    game.minsize(even, odd)
    # 16 orbits of the 256 subsets of a side; the empty one is line 0
    assert game.derived_lines == 240
    game.minsize(even, odd)  # answered from the table
    assert game.derived_lines == 240
    # 13 strings, so the search pays, but no map fixes the root
    left = prop(4, ["0000", "1000", "0100", "1110", "0001", "1011"])
    right = prop(4, ["1100", "0010", "1010", "0110", "1001", "0101", "1111"])
    assert propgame._symmetry_pays(4, 13)
    assert propgame._stabilizer(4, left.mask, right.mask) == []
    game = PropGame(4)
    game.minsize(left, right)
    assert game.table_entries > 0
    assert game.derived_lines == 0


def test_one_outer_member_searches_no_stabilizer(monkeypatch):
    # with one member on the outer side every map fixes its only line after
    # the first, so no map could derive a line and the search is skipped
    calls = []
    stabilizer = propgame._stabilizer

    def recording_stabilizer(width, smask, rmask):
        calls.append((smask, rmask))
        return stabilizer(width, smask, rmask)

    monkeypatch.setattr(propgame, "_stabilizer", recording_stabilizer)
    assert propgame._symmetry_pays(4, 14)
    rng = random.Random(99)
    for root in _random_roots(rng, 4, [(1, 13), (13, 1)]):
        assert suites.size_table_mismatches(4, [root]) == []
    assert calls == []
    # a root of as many strings with two or more on each side is searched
    even, odd = parity_property(4)
    PropGame(4).value(even.mask & even.mask - 1, odd.mask & odd.mask - 1)
    assert len(calls) == 1


PARITY_SYNTHESIS = {
    2: (4, 9, "((!p1 & !p2) | (p2 & p1))"),
    3: (
        10,
        225,
        "((!p3 & ((!p1 & !p2) | (p2 & p1))) | (p3 & ((p1 & !p2) | (p2 & !p1))))",
    ),
    4: (
        16,
        65025,
        "(((p3 | p4) & ((p1 | p2) & ((!p2 | !p1) & (!p4 | !p3)))) | "
        "((!p3 | p4) & ((!p4 | p3) & ((!p1 & !p2) | (p2 & p1)))))",
    ),
}


@pytest.mark.parametrize("n", sorted(PARITY_SYNTHESIS))
def test_parity_synthesis_and_table_size_are_pinned(n):
    k, entries, text = PARITY_SYNTHESIS[n]
    left, right = parity_property(n)
    game = PropGame(n)
    assert game.minsize(left, right) == k
    assert game.table_entries == entries
    assert format_formula(game.synthesize(left, right, k)) == text
    assert game.table_entries == entries


def test_synthesis_from_a_kept_cell_matches_a_fresh_game():
    # synthesis of a position that an earlier fill holds, but that is not
    # its root, walks that fill's cells and adds nothing to the table
    rng = random.Random(155)
    even, odd = parity_property(4)
    roots = [(even.mask, odd.mask), *_random_roots(rng, 4, [(6, 5)])]
    game = PropGame(4)
    assert all(game.value(*root) > 1 for root in roots)
    entries, derived = game.table_entries, game.derived_lines
    cells = {
        (smask, rmask)
        for fill in game._value.fills
        for smask in suites.compact_masks(fill.smask)[1:]
        for rmask in suites.compact_masks(fill.rmask)[1:]
    }
    picks = rng.sample(sorted(cells - set(roots)), 10)
    for smask, rmask in roots:
        # one string short of the root on either side
        picks += [(smask & smask - 1, rmask), (smask, rmask & rmask - 1)]
    for smask, rmask in picks:
        left, right = StringProperty(4, smask), StringProperty(4, rmask)
        k = game.minsize(left, right)
        assert PropGame(4).minsize(left, right) == k
        text = format_formula(game.synthesize(left, right, k))
        assert text == format_formula(PropGame(4).synthesize(left, right, k))
        assert (game.table_entries, game.derived_lines) == (entries, derived)


def test_literal_sub_pair_of_a_fill_is_answered_from_it():
    # a proper sub-pair of the root that a literal separates, though not
    # (S, B) or (A, R), so a top-down search from the root never visits it
    left = prop(3, ["000", "011", "101"])
    right = prop(3, ["001", "110", "111"])
    sub_left, sub_right = prop(3, ["000", "011"]), prop(3, ["111"])
    assert literal_win(left, sub_right) is None
    assert literal_win(sub_left, right) is None
    assert literal_win(sub_left, sub_right) is not None
    game = PropGame(3)
    game.minsize(left, right)
    entries = game.table_entries
    assert game._value.locate(sub_left.mask, sub_right.mask) is not None
    assert game.minsize(sub_left, sub_right) == PropGame(3).minsize(sub_left, sub_right) == 1
    text = format_formula(game.synthesize(sub_left, sub_right, 1))
    assert text == format_formula(PropGame(3).synthesize(sub_left, sub_right, 1))
    assert game.table_entries == entries
    # a literal win and an empty side outside the fill add nothing either
    assert game.minsize(prop(3, ["010"]), prop(3, ["100"])) == 1
    assert game.value(0, (1 << 8) - 1) == 2
    assert game.table_entries == entries and len(game._value.fills) == 1


@pytest.mark.parametrize("s_outer", [True, False])
def test_size_one_cells_synthesize_the_literal_that_literal_win_names(monkeypatch, s_outer):
    # synthesis names a cell's literal from the cell's masks by literal_win's
    # rule, whichever side the fill ran along
    monkeypatch.setattr(propgame, "_outer_first", lambda n1, n2: s_outer)
    rng = random.Random(156)
    for width, shapes in ((3, [(3, 4), (5, 2)]), (4, [(5, 6), (2, 9)])):
        for smask, rmask in _random_roots(rng, width, shapes):
            game = PropGame(width)
            game.value(smask, rmask)
            checked = 0
            for a in suites.compact_masks(smask)[1:]:
                for b in suites.compact_masks(rmask)[1:]:
                    left, right = StringProperty(width, a), StringProperty(width, b)
                    if game.value(a, b) == 1:
                        checked += 1
                        text = format_formula(game.synthesize(left, right, 1))
                        assert text == format_formula(literal_win(left, right).formula())
            assert len(game._value.fills) == 1 and checked > 0


def test_synthesis_texts_match_the_reference_scan():
    # the scan that stops at the first split with u = 1 gives the texts of
    # the scan over every block
    rng = random.Random(157)
    checked = 0
    for _ in range(300):
        width = rng.choice((2, 3, 4))
        left, right = suites.random_property_pair(rng, width)
        game = PropGame(width)
        k = game.minsize(left, right)
        found = game._value.locate(left.mask, right.mask)
        if found is None:
            continue
        want = format_formula(suites.reference_build(game._literals, *found))
        for budget in (k, k + 2):
            assert format_formula(game.synthesize(left, right, budget)) == want
        checked += 1
    assert checked > 200


def test_synthesize_single_literal_tie_break():
    # both variables work; the lowest index with positive polarity wins
    f = PropGame(2).synthesize(prop(2, ["11"]), prop(2, ["00"]), 1)
    assert f == Var(1)


def test_synthesize_below_minimum_returns_none():
    assert PropGame(2).synthesize(PARITY2_S, PARITY2_R, 3) is None


def test_synthesize_split_of_two_singletons():
    f = PropGame(2).synthesize(prop(2, ["10", "01"]), prop(2, ["00"]), 2)
    assert f == Or(Var(1), Var(2))


def test_synthesize_output_contract():
    rng = random.Random(5)
    game = PropGame(3)
    for _ in range(300):
        smask = rng.randrange(1, 1 << 8)
        rmask = rng.randrange(1, 1 << 8)
        if smask & rmask:
            continue
        s, r = StringProperty(3, smask), StringProperty(3, rmask)
        k = game.minsize(s, r)
        f = game.synthesize(s, r, k)
        assert f is not None
        assert size(f) <= k
        assert separates(f, s, r)
        if k > 1:
            assert game.synthesize(s, r, k - 1) is None


def test_strategy_move_disjunction_splits_satisfiers():
    move = formula_strategy_move(
        Or(Var(1), Var(2)), PropPosition(2, prop(2, ["10", "01"]), prop(2, ["00"]))
    )
    assert move == LeftSplit(1, 1, prop(2, ["10"]), prop(2, ["01"]))


def test_strategy_move_literal_claims_win():
    move = formula_strategy_move(Var(1), PropPosition(1, prop(1, ["1"]), prop(1, ["0"])))
    assert move == WinClaim(Literal(1, True))


def test_strategy_move_conjunction_splits_falsifiers():
    move = formula_strategy_move(
        And(Var(1), Var(2)), PropPosition(2, prop(2, ["11"]), prop(2, ["01", "10"]))
    )
    assert move == RightSplit(1, 1, prop(2, ["01"]), prop(2, ["10"]))


def test_strategy_move_checks_preconditions():
    with pytest.raises(ContractError):
        formula_strategy_move(
            Not(And(Var(1), Var(2))),  # not in negation normal form
            PropPosition(2, prop(2, ["00"]), prop(2, ["11"])),
        )
    with pytest.raises(ContractError):
        formula_strategy_move(
            Var(1), PropPosition(1, prop(2, ["01"]), prop(2, ["11"]))
        )
    with pytest.raises(ContractError):
        formula_strategy_move(
            Or(Var(1), Var(2)), PropPosition(1, prop(2, ["10", "01"]), prop(2, ["00"]))
        )


def _play_out(f, pos):
    """Drive the game with moves read off the formula; every branch player
    II can pick must end in a successful win claim."""
    move = formula_strategy_move(f, pos)
    branches = successors(pos, move)
    if isinstance(move, WinClaim):
        return
    parts = (f.left, f.right)
    for child, branch in zip(parts, branches):
        _play_out(child, branch)


def test_strategy_moves_win_every_branch():
    rng = random.Random(17)
    game = PropGame(3)
    for _ in range(150):
        smask = rng.randrange(1, 1 << 8)
        rmask = rng.randrange(1, 1 << 8)
        if smask & rmask:
            continue
        s, r = StringProperty(3, smask), StringProperty(3, rmask)
        k = game.minsize(s, r)
        f = to_nnf(game.synthesize(s, r, k))
        _play_out(f, PropPosition(k, s, r))


def test_successors_validate_moves():
    pos = PropPosition(3, PARITY2_S, PARITY2_R)
    with pytest.raises(ContractError):
        successors(pos, WinClaim(Literal(1, True)))
    with pytest.raises(ContractError):
        successors(pos, LeftSplit(1, 1, prop(2, ["00"]), prop(2, ["11"])))
    with pytest.raises(ContractError):
        successors(pos, LeftSplit(2, 1, prop(2, ["00"]), prop(2, ["00"])))
    with pytest.raises(ContractError):
        successors(
            PropPosition(1, PARITY2_S, PARITY2_R),
            LeftSplit(1, 1, prop(2, ["00"]), prop(2, ["11"])),
        )
    with pytest.raises(ContractError, match="not a move"):
        successors(pos, Literal(1, True))
    with pytest.raises(ContractError, match="wrong width"):
        successors(pos, RightSplit(2, 1, prop(3, ["010"]), prop(3, ["100"])))
    left, right = successors(pos, LeftSplit(2, 1, prop(2, ["00"]), prop(2, ["11"])))
    assert left == PropPosition(2, prop(2, ["00"]), PARITY2_R)
    assert right == PropPosition(1, prop(2, ["11"]), PARITY2_R)


def _sample_strings(rng, width, count):
    return [
        BitString(width, b)
        for b in rng.sample(range(1 << width), count)
    ]


def test_winner_matches_size_threshold_at_small_widths():
    # widths 1..3 over a fixed 3-string sample, every split of the sample,
    # ranks 1..6, exact rules against the truth-table baseline
    rng = random.Random(41)
    for width in (1, 2, 3):
        universe = _sample_strings(rng, width, min(3, 1 << width))
        game = PropGame(width)
        for assign in itertools.product((0, 1, 2), repeat=len(universe)):
            s = frozenset(x for x, a in zip(universe, assign) if a == 0)
            r = frozenset(x for x, a in zip(universe, assign) if a == 1)
            if not s or not r:
                continue
            sp = StringProperty.from_strings(width, s)
            rp = StringProperty.from_strings(width, r)
            best = oracle_minsize(sp, rp)
            for w in range(1, 7):
                pos = PropPosition(w, sp, rp)
                expect = Player.I if best <= w else Player.II
                assert game.winner(pos, GameMode.EXACT) is expect
                assert game.winner(pos, GameMode.REDUCED) is expect


def test_modes_agree_on_width_two_exhaustively():
    game = PropGame(2)
    for sp, rp in all_pairs(2):
        for w in range(1, 6):
            pos = PropPosition(w, sp, rp)
            assert game.winner(pos, GameMode.EXACT) is game.winner(
                pos, GameMode.REDUCED
            )


def _exact_mismatches(game, width, positions, ranks=range(1, 7)):
    """The (w, smask, rmask) among positions x ranks, asked of game in that
    order, where its exact-mode winner differs from a fresh reference's."""
    wrong = []
    for smask, rmask in positions:
        ref = suites.ReferenceExactGame(width)
        left, right = StringProperty(width, smask), StringProperty(width, rmask)
        for w in ranks:
            got = game.winner(PropPosition(w, left, right), GameMode.EXACT)
            if (got is Player.I) != ref.wins(w, smask, rmask):
                wrong.append((w, smask, rmask))
    return wrong


def test_exact_mode_matches_reference_on_every_width_two_pair():
    # every (S, R) of width 2, empty and overlapping sides included, each on
    # a fresh game
    for smask in range(1 << 4):
        for rmask in range(1 << 4):
            assert _exact_mismatches(PropGame(2), 2, [(smask, rmask)]) == []


def test_exact_mode_matches_reference_on_random_width_three_roots():
    rng = random.Random(171)
    even, odd = parity_property(3)
    roots = [(even.mask, odd.mask)] + _random_roots(
        rng,
        3,
        [(1, 7), (7, 1), (4, 4), (0, 5), (5, 0), (0, 0), (3, 5), (5, 3), (2, 6)]
        + [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(30)],
    )
    # roots whose sides share a string
    for _ in range(4):
        strings = rng.sample(range(8), 6)
        roots.append(
            (sum(1 << e for e in strings[:4]), sum(1 << e for e in strings[3:]))
        )
    for smask, rmask in roots:
        assert _exact_mismatches(PropGame(3), 3, [(smask, rmask)]) == []


@pytest.mark.parametrize("root_first", [True, False])
def test_exact_mode_matches_reference_on_a_shared_game(root_first):
    # one game asked about a root and then its sub-positions, or the sub-
    # positions first, answers each as a fresh reference does
    left = prop(3, ["000", "011", "101", "110"])
    right = prop(3, ["001", "010", "111"])
    rng = random.Random(172)
    subs = [
        (a, b)
        for a in suites.compact_masks(left.mask)
        for b in suites.compact_masks(right.mask)
        if (a, b) != (left.mask, right.mask)
    ]
    positions = [(left.mask, right.mask)] + rng.sample(subs, 40)
    if not root_first:
        positions.reverse()
    assert _exact_mismatches(PropGame(3), 3, positions) == []


def test_win_survives_rank_boost_and_shrinking():
    rng = random.Random(61)
    game = PropGame(3)
    for _ in range(200):
        smask = rng.randrange(1, 1 << 8)
        rmask = rng.randrange(1, 1 << 8)
        if smask & rmask:
            continue
        s, r = StringProperty(3, smask), StringProperty(3, rmask)
        k = game.minsize(s, r)
        sub_s = StringProperty(3, smask & rng.randrange(1, 1 << 8))
        sub_r = StringProperty(3, rmask & rng.randrange(1, 1 << 8))
        for w in (k, k + 1, k + 3):
            pos = PropPosition(w, sub_s, sub_r)
            assert game.winner(pos, GameMode.REDUCED) is Player.I


def test_exact_mode_cap_is_enforced():
    game = PropGame(4, cap_exact_strings=8)
    s = prop(4, ["0000", "0001", "0010", "0011", "0100"])
    r = prop(4, ["1000", "1001", "1010", "1011"])
    with pytest.raises(ResourceCapError) as err:
        game.winner(PropPosition(3, s, r), GameMode.EXACT)
    assert "cap-exact-strings" in str(err.value)


def test_solver_caps_are_enforced():
    game = PropGame(2, cap_strings=3)
    full = prop(2, ["00", "01", "10"])
    with pytest.raises(ResourceCapError):
        game.minsize(full, prop(2, ["11"]))
    with pytest.raises(InputError):
        PropGame(2).minsize(prop(2, ["00"]), prop(3, ["111"]))


def test_the_strings_cap_is_checked_where_a_fill_starts():
    # value() over the cap is refused before its 2**20-cell fill; a root a
    # literal separates needs no fill and is answered at any size
    strings = ["".join(b) for b in itertools.product("01", repeat=5)]
    even = [x for x in strings if x.count("1") % 2 == 0][:10]
    odd = [x for x in strings if x.count("1") % 2 == 1][:10]
    game = PropGame(5)
    with pytest.raises(ResourceCapError) as err:
        game.value(prop(5, even).mask, prop(5, odd).mask)
    assert "(--cap-strings)" in str(err.value)
    assert game.table_entries == 0
    zeros = [x for x in strings if x[0] == "0"][:9]
    ones = [x for x in strings if x[0] == "1"][:8]
    assert game.minsize(prop(5, zeros), prop(5, ones)) == 1


def test_width_and_budget_are_validated():
    for width in (0, 17):
        with pytest.raises(InputError, match="width must be 1..16"):
            PropGame(width)
    with pytest.raises(InputError, match="budget must be >= 1"):
        PropGame(2).synthesize(PARITY2_S, PARITY2_R, 0)


def test_position_width_mismatch_rejected():
    with pytest.raises(InputError):
        PropPosition(2, prop(2, ["00"]), prop(3, ["000"]))
    with pytest.raises(InputError):
        PropPosition(0, prop(2, ["00"]), prop(2, ["11"]))
