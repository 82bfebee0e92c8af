import copy
import itertools
import random

import pytest

import suites
from efgames import (
    EMPTY_ASSIGNMENT,
    Assignment,
    EqAtom,
    Exists,
    FoGame,
    FoMode,
    FoNot,
    InputError,
    Model,
    Player,
    PropGame,
    RelAtom,
    ResourceCapError,
    Structure,
    StringProperty,
    StructureClass,
    Vocabulary,
    atom_candidates,
    atomic_separators,
    fo_eval,
    fo_separates,
    fo_size,
    format_fo,
    is_existential,
    linear_order,
    linorder_instances,
    boolcomb_instances,
    class_from_json,
    class_to_json,
    parity_property,
)
from efgames.fo import atom_mask, family_masks, structure_from_json, structure_to_json
from efgames.fogame import _Lost, _members


def order_class(k, assignment=()):
    st = Structure(linear_order(k), Assignment.make(assignment))
    return StructureClass.of(frozenset([st]))


def test_atomic_separator_wins_at_rank_one():
    vocab = Vocabulary.make(("<", 2))
    a = StructureClass.of(
        frozenset([Structure(linear_order(2), Assignment.make({0: 0, 1: 1}))]),
        vocabulary=vocab,
        domain=frozenset({0, 1}),
    )
    b = StructureClass.of(
        frozenset([Structure(linear_order(1), Assignment.make({0: 0, 1: 0}))]),
        vocabulary=vocab,
        domain=frozenset({0, 1}),
    )
    assert FoGame().winner(1, a, b, FoMode.FULL) is Player.I
    f = FoGame().synthesize(a, b, 1, FoMode.FULL)
    assert f == RelAtom("<", (0, 1))


def test_order_length_two_needs_rank_three():
    a, b = linorder_instances(2)
    assert FoGame().winner(3, a, b, FoMode.EXISTENTIAL) is Player.I
    assert FoGame().winner(2, a, b, FoMode.EXISTENTIAL) is Player.II


def test_minsize_of_length_two_orders():
    a, b = linorder_instances(2)
    assert FoGame().minsize(a, b, mode=FoMode.EXISTENTIAL, w_max=6) == 3


def test_minsize_of_smallest_combination_family():
    a, b = boolcomb_instances(1)
    assert FoGame().minsize(a, b, mode=FoMode.EXISTENTIAL, w_max=6) == 4


def test_identical_classes_are_inseparable():
    a = order_class(2)
    assert FoGame().minsize(a, a, mode=FoMode.FULL, w_max=4) is None
    assert FoGame().minsize(a, a, mode=FoMode.EXISTENTIAL, w_max=4) is None


def test_classes_that_share_a_structure_are_inseparable_at_once():
    # no formula is true and false on the shared structure, so no rank is
    # searched
    a, b = linorder_instances(2)
    both = StructureClass.of(a.members + b.members)
    for mode in FoMode:
        for left, right in ((a, both), (both, b)):
            game = FoGame()
            assert game.minsize(left, right, mode=mode, w_max=3) is None
            assert game.positions_visited == 0



def test_synthesis_of_classes_that_share_a_structure_is_none_at_once():
    # before any rank was searched, these queries stopped at the
    # choice-function cap (full, rank 4) or the class-size cap
    two = order_class(2)
    both = StructureClass.of(two.members + order_class(3).members)
    for mode, rank in ((FoMode.FULL, 4), (FoMode.FULL, 5), (FoMode.EXISTENTIAL, 5)):
        game = FoGame()
        assert game.synthesize(two, both, rank, mode) is None
        assert game.positions_visited == 0

def test_synthesized_order_sentence_matches_reference():
    a, b = linorder_instances(2)
    f = FoGame().synthesize(a, b, 3, FoMode.EXISTENTIAL)
    assert f is not None
    assert fo_size(f) <= 3
    assert is_existential(f)
    assert fo_separates(f, a, b)
    reference = Exists(0, Exists(1, RelAtom("<", (0, 1))))
    for k in (1, 2, 3, 4):
        st = Structure(linear_order(k), EMPTY_ASSIGNMENT)
        assert fo_eval(f, st) == fo_eval(reference, st)


def test_synthesis_below_minimum_returns_none():
    a, b = linorder_instances(2)
    assert FoGame().synthesize(a, b, 2, FoMode.EXISTENTIAL) is None


def test_winner_validates_input():
    a, b = linorder_instances(2)
    with pytest.raises(InputError):
        FoGame().winner(0, a, b, FoMode.FULL)
    vocab = Vocabulary.make(("P1", 1))
    other = StructureClass.of(
        frozenset([Structure(Model.make(vocab, 1, {"P1": []}), EMPTY_ASSIGNMENT)])
    )
    with pytest.raises(InputError):
        FoGame().winner(2, a, other, FoMode.FULL)
    shifted = StructureClass.of(
        frozenset([Structure(linear_order(1), Assignment.make({0: 0}))]),
        vocabulary=a.vocabulary,
        domain=frozenset({0}),
    )
    with pytest.raises(InputError):
        FoGame().winner(2, a, shifted, FoMode.FULL)


def test_minsize_and_synthesize_reject_a_bound_below_one():
    a, b = linorder_instances(2)
    with pytest.raises(InputError, match="w_max must be >= 1"):
        FoGame().minsize(a, b, FoMode.FULL, w_max=0)
    with pytest.raises(InputError, match="rank must be >= 1"):
        FoGame().synthesize(a, b, 0)


def test_class_size_cap():
    game = FoGame(cap_class_size=1)
    a, b = boolcomb_instances(1)  # the adversary class has two members
    with pytest.raises(ResourceCapError) as err:
        game.winner(2, a, b, FoMode.EXISTENTIAL)
    assert "cap-class-size" in str(err.value)


def test_choice_function_cap():
    game = FoGame(cap_choice_functions=1)
    a, b = linorder_instances(3)
    with pytest.raises(ResourceCapError) as err:
        game.winner(3, a, b, FoMode.EXISTENTIAL)
    assert "cap-choice-functions" in str(err.value)


def test_position_cap_bounds_one_query():
    game = FoGame(cap_positions=2)
    a, b = linorder_instances(2)
    with pytest.raises(ResourceCapError) as err:
        game.winner(3, a, b, FoMode.EXISTENTIAL)
    assert "cap-positions" in str(err.value)
    # a solved query fits in any later budget: the cap is per call
    big = FoGame()
    assert big.winner(3, a, b, FoMode.EXISTENTIAL) is Player.I
    small_budget = big.positions_visited
    assert big.winner(3, a, b, FoMode.EXISTENTIAL) is Player.I
    assert big.positions_visited == 0  # answered from the memo


def test_choice_function_cap_stops_a_scan_before_its_leaves():
    three, two = linorder_instances(3)
    # choosing on the 3-order: the root is the only position counted
    game = FoGame(cap_choice_functions=2)
    with pytest.raises(ResourceCapError) as err:
        game.winner(2, three, two, FoMode.FULL)
    assert "3 choice functions exceed the cap 2 (--cap-choice-functions)" in str(err.value)
    assert game.positions_visited == 1
    # the 2-order's two choice functions pass and lose; the branching side
    # then chooses on the 3-order, and none of that scan's leaves is counted
    game = FoGame(cap_choice_functions=2)
    with pytest.raises(ResourceCapError) as err:
        game.winner(2, two, three, FoMode.FULL)
    assert "(--cap-choice-functions)" in str(err.value)
    assert game.positions_visited == 3


def test_position_cap_stops_a_rank_two_scan_midway():
    # no atom exists over the empty domain, so the root goes straight to
    # its 2 * 3 * 4 = 24 rank-1 choice classes, all of them lost
    orders = StructureClass.of(
        frozenset(Structure(linear_order(k), EMPTY_ASSIGNMENT) for k in (2, 3, 4))
    )
    five = order_class(5)
    assert FoGame().winner(2, orders, five, FoMode.FULL) is Player.II
    game = FoGame(cap_positions=10)
    with pytest.raises(ResourceCapError) as err:
        game.winner(2, orders, five, FoMode.FULL)
    assert "visited positions exceed the cap 10 (--cap-positions)" in str(err.value)
    assert "rank-1 position" in str(err.value)
    assert game.positions_visited == 11


def test_cap_errors_say_how_far_the_search_got():
    a, b = linorder_instances(3)
    game = FoGame(cap_positions=50)
    with pytest.raises(ResourceCapError) as err:
        game.minsize(a, b, FoMode.FULL, w_max=5)
    assert str(err.value).endswith("visited positions in this query: 51")
    # the root and the three leaves of choosing on the 3-order come before
    # player II branches over the 3-order's three extensions
    game = FoGame(cap_class_size=2)
    with pytest.raises(ResourceCapError) as err:
        game.winner(2, a, b, FoMode.FULL)
    message = str(err.value)
    assert "reaches 3 members, over the cap 2 (--cap-class-size)" in message
    assert message.endswith("rank-2 position, visited positions in this query: 4")



def test_the_class_size_cap_refuses_a_star_before_building_it():
    # at rank 2 player II would branch over every element of the large
    # structure; its star is refused from the universe size alone
    vocab = Vocabulary.make(("P", 1))
    small, large = (
        StructureClass.of([Structure(Model.make(vocab, k), EMPTY_ASSIGNMENT)])
        for k in (1, 5000)
    )
    game = FoGame()
    with pytest.raises(ResourceCapError) as err:
        game.winner(2, small, large, FoMode.FULL)
    message = str(err.value)
    assert "reaches 5000 members, over the cap 64 (--cap-class-size)" in message
    assert message.endswith("rank-2 position, visited positions in this query: 1")
    assert len(game._by_id) < 100


def test_the_choice_cap_refuses_before_any_extension_is_interned():
    # player I would choose one of 11 witnesses; only the right side's one
    # extension, for player II's branching, is interned before the refusal
    vocab = Vocabulary.make(("P", 1))
    left = StructureClass.of([Structure(Model.make(vocab, 11), EMPTY_ASSIGNMENT)])
    right = StructureClass.of(
        [Structure(Model.make(vocab, 1, {"P": [(0,)]}), EMPTY_ASSIGNMENT)]
    )
    game = FoGame(cap_choice_functions=10)
    with pytest.raises(ResourceCapError) as err:
        game.winner(2, left, right, FoMode.EXISTENTIAL)
    assert "11 choice functions exceed the cap 10 (--cap-choice-functions)" in str(
        err.value
    )
    assert len(game._by_id) == 3
    assert not game._choosers


def test_winner_agrees_with_enumeration_everywhere(tiny_fo_suite):
    for mode, (game, records) in tiny_fo_suite.items():
        for rec in records:
            for w, won in enumerate(rec.wins, start=1):
                expect = rec.enum_best is not None and rec.enum_best <= w
                assert won == expect, (
                    f"{mode}: game and enumeration disagree at rank {w} "
                    f"(smallest separator: {rec.enum_best})"
                )


def test_existential_win_carries_to_full_mode(tiny_fo_suite):
    _, exi_records = tiny_fo_suite[FoMode.EXISTENTIAL]
    _, full_records = tiny_fo_suite[FoMode.FULL]
    for exi, full in zip(exi_records, full_records):
        assert exi.left == full.left and exi.right == full.right
        for w_exi, w_full in zip(exi.wins, full.wins):
            assert not w_exi or w_full


def test_wins_are_rank_monotone(tiny_fo_suite):
    for mode, (game, records) in tiny_fo_suite.items():
        for rec in records:
            for lower, higher in zip(rec.wins, rec.wins[1:]):
                assert not lower or higher


def test_synthesis_sound_across_tiny_positions(tiny_fo_suite):
    for mode, (game, records) in tiny_fo_suite.items():
        for rec in records:
            if rec.enum_best is None:
                continue
            w = rec.enum_best
            f = game.synthesize(rec.left, rec.right, w, mode)
            assert f is not None
            assert fo_size(f) <= w
            assert fo_separates(f, rec.left, rec.right)
            if mode is FoMode.EXISTENTIAL:
                assert is_existential(f)


def test_variable_reuse_does_not_change_winners(tiny_fo_suite):
    # the solver binds only fresh indices; allowing in-scope indices too
    # must not flip any winner
    rng = random.Random(97)
    _, records = tiny_fo_suite[FoMode.FULL]
    sample = rng.sample(records, 30)
    for mode in (FoMode.EXISTENTIAL, FoMode.FULL):
        reuse = suites.ReusingFoGame()
        restricted = tiny_fo_suite[mode][0]
        for rec in sample:
            for w in (2, 3, 4):
                assert reuse.winner(w, rec.left, rec.right, mode) is restricted.winner(
                    w, rec.left, rec.right, mode
                )


def test_synthesize_respects_vacuous_separation():
    # an empty left class against a nonempty right class is separated by
    # a contradiction at rank 2
    vocab = Vocabulary.make(("P1", 1))
    member = Structure(Model.make(vocab, 1, {"P1": [(0,)]}), EMPTY_ASSIGNMENT)
    empty = StructureClass.of(frozenset(), vocabulary=vocab, domain=frozenset())
    full = StructureClass.of(frozenset([member]))
    won_at = FoGame().minsize(empty, full, mode=FoMode.FULL, w_max=4)
    assert won_at is not None
    f = FoGame().synthesize(empty, full, won_at, FoMode.FULL)
    assert fo_separates(f, empty, full)


# the chain sentence both modes synthesize for the n = 3 order, recorded
# before atoms were decided by truth masks
ORDER_3_SENTENCE = "exists x0 exists x1 ((x0 < x1) & exists x2 (x1 < x2))"


@pytest.mark.parametrize(
    "mode, positions", [(FoMode.EXISTENTIAL, 139), (FoMode.FULL, 82_799)]
)
def test_order_three_search_is_pinned(mode, positions):
    # the full-mode count covers the deep rank-4 refutation; any change to
    # the move order or the canonical class order moves it
    a, b = linorder_instances(3)
    game = FoGame()
    assert game.minsize(a, b, mode, w_max=5) == 5
    assert game.positions_visited == positions
    assert format_fo(game.synthesize(a, b, 5, mode)) == ORDER_3_SENTENCE


@pytest.mark.parametrize(
    "mode, positions", [(FoMode.EXISTENTIAL, 139), (FoMode.FULL, 82_799)]
)
def test_every_visited_position_is_one_memo_entry(mode, positions):
    # rank-1 children are counted in a local of the choice scan; the count
    # must still match what the sub-tables hold
    a, b = linorder_instances(3)
    game = FoGame()
    assert game.minsize(a, b, mode, w_max=5) == 5
    assert game.positions_visited == positions
    rows = [row for table in game._memo.values() for row in table.values()]
    assert sum(map(len, rows)) == positions
    assert all(rows)
    assert game.minsize(a, b, mode, w_max=5) == 5
    assert game.positions_visited == 0


def test_a_right_scan_reads_the_position_a_left_scan_stored():
    # on one-element universes a member's star is its one choice function,
    # so the right scan's child at (star of A, choice on B) is the left
    # scan's child at (choice on A, star of B): one position, one entry
    vocab = Vocabulary.make(("P1", 1), ("E", 2))
    structs = [
        Structure(Model.make(vocab, 1, {"P1": p, "E": e}), EMPTY_ASSIGNMENT)
        for p in ((), [(0,)])
        for e in ((), [(0, 0)])
    ]
    classes = [
        StructureClass.of(combo, vocabulary=vocab, domain=())
        for k in (1, 2)
        for combo in itertools.combinations(structs, k)
    ]
    # at rank 2 the left scan loses its one rank-1 child, and the right
    # scan meets it in the memo: only the root and that child are visited
    game = FoGame()
    assert game.winner(2, classes[4], classes[0], FoMode.FULL) is Player.II
    assert game.positions_visited == 2
    queries = [(a, b, w) for a in classes for b in classes for w in (1, 2, 3)]
    assert suites.fo_search_mismatches(queries, FoMode.FULL) == []
    for a, b, w in queries:
        game = FoGame()
        game.winner(w, a, b, FoMode.FULL)
        rows = [row for table in game._memo.values() for row in table.values()]
        assert sum(map(len, rows)) == game.positions_visited
        assert all(rows)


def test_kept_folds_classes_and_supplements_match_fresh_ones(tiny_fo_suite):
    # each record is built once and read on every later visit, so each must
    # still equal what a fresh walk gives
    games = []
    for mode in FoMode:
        game = FoGame()
        assert game.minsize(*linorder_instances(3), mode, w_max=5) == 5
        games.append((game, linorder_instances(3)))
    reuse = suites.ReusingFoGame()  # several variables per supplement
    for mode in FoMode:
        reuse.minsize(*linorder_instances(2), mode, w_max=3)
    games.append((reuse, linorder_instances(2)))
    for game, records in tiny_fo_suite.values():
        games.append((game, [c for rec in records for c in (rec.left, rec.right)]))
    for game, entered in games:
        assert game._folded and game._classes and game._supps
        assert game._star and game._choosers
        # the records as built, and as read for every class and domain of a
        # decided position
        sides = set(game._folded)
        doms = set(game._supps)
        for (_, _, dom), table in game._memo.items():
            doms.add(dom)
            for bm, row in table.items():
                for am in row:
                    sides.update((am, bm))
        for m in sides:
            every, some = -1, 0
            for sid in _members(m):
                every &= game._masks[sid]
                some |= game._masks[sid]
            assert game._fold(m) == (every, some)
        for cls in entered:
            bits = 0
            for st in cls.members:
                bits |= 1 << game._ids[st.model, st.assignment.items]
            assert game._classes[cls.members, cls.domain] == (
                bits,
                tuple(sorted(cls.domain)),
            )
        for dom in doms:
            assert game._supplements(dom) == [
                (j, tuple(sorted({*dom, j}))) for j in game._supp_vars(dom)
            ]
        # a branching star is every extension of every member; the chooser
        # halves, joined in product order, are every choice function's
        # bitset over the members in _ordered order, and its masks are the
        # atoms true, and false, on some extension of every member
        masks = game._masks
        for (m, j), star in game._star.items():
            assert star == sum(
                {1 << ext for sid in _members(m) for ext in game._extensions(sid, j)}
            )
        for (m, j), record in game._choosers.items():
            head, tail, some_every, some_none, lost = record
            families = [game._extensions(sid, j) for sid in game._ordered(m)]
            want = []
            for choice in itertools.product(*families):
                cb = 0
                for ext in choice:
                    cb |= 1 << ext
                want.append(cb)
            assert [hb | tb for hb in head for tb in tail] == want
            assert lost is None or lost == dict.fromkeys(want, False)
            want_every = want_none = -1
            for exts in families:
                some = none = 0
                for ext in exts:
                    some |= masks[ext]
                    none |= ~masks[ext]
                want_every &= some
                want_none &= none
            assert (some_every, some_none) == (want_every, want_none)
    assert any(len(supps) > 1 for supps in reuse._supps.values())


def test_entered_classes_still_pass_the_query_checks():
    a, b = linorder_instances(3)
    game = FoGame()
    assert game.minsize(a, b, FoMode.EXISTENTIAL, w_max=5) == 5
    game.cap_class_size = len(a.members) - 1
    for query in (
        lambda: game.winner(5, a, b, FoMode.EXISTENTIAL),
        lambda: game.minsize(a, b, FoMode.EXISTENTIAL),
        lambda: game.synthesize(a, b, 5, FoMode.EXISTENTIAL),
    ):
        with pytest.raises(ResourceCapError, match="cap-class-size"):
            query()
    game.cap_class_size = len(a.members)
    # both sides of each mixed pair below have been entered before
    _, tiny = suites.tiny_fo_universe()
    game.winner(1, tiny[0], tiny[1])
    for left, right in ((a, tiny[0]), (tiny[1], b)):
        with pytest.raises(InputError, match="vocabularies"):
            game.winner(1, left, right)
    # a class read back from its JSON is another object with the same
    # bitset, and a solver fed such copies visits the same positions
    originals, copies = FoGame(), FoGame()
    seen = []
    for x, y in itertools.product(tiny[:6], repeat=2):
        for w in (1, 2, 3):
            assert originals.winner(w, x, y) is copies.winner(
                w, *(class_from_json(class_to_json(c)) for c in (x, y))
            )
            seen.append((originals.positions_visited, copies.positions_visited))
    assert any(got for got, _ in seen)
    assert all(got == want for got, want in seen)
    for x in tiny[:6]:
        twin = class_from_json(class_to_json(x))
        assert twin == x and twin is not x
        assert copies._class(twin)[0] == copies._class(x)[0] == originals._class(x)[0]


def test_equal_classes_share_one_record():
    # two equal left classes that are distinct objects, each asked against
    # the same right class: the second query is one record read and a memo hit
    left, right = linorder_instances(3)
    twin = StructureClass.of(left.members)
    assert twin == left and twin is not left
    game = FoGame()
    assert game.winner(5, left, right, FoMode.EXISTENTIAL) is Player.I
    assert game.positions_visited > 0
    assert game.winner(5, twin, right, FoMode.EXISTENTIAL) is Player.I
    assert game.positions_visited == 0
    assert len(game._classes) == 2


def _tiny_universe_answers(rng=None):
    """One shared FoGame per mode answers every tiny-universe pair,
    existential at ranks 1-4 and full at ranks 1-3: the positions visited
    per mode, and the winner per (mode, left, right, rank).  With ``rng``
    the pair order and each class's member order are shuffled."""
    _, classes = suites.tiny_fo_universe()
    pairs = list(itertools.product(range(len(classes)), repeat=2))
    if rng is not None:
        classes = [
            StructureClass.of(
                rng.sample(cls.members, len(cls.members)),
                vocabulary=cls.vocabulary,
                domain=cls.domain,
            )
            for cls in classes
        ]
        rng.shuffle(pairs)
    positions, winners = {}, {}
    for mode, ranks in ((FoMode.EXISTENTIAL, 4), (FoMode.FULL, 3)):
        game, positions[mode] = FoGame(), 0
        for i, k in pairs:
            for w in range(1, ranks + 1):
                winners[mode, i, k, w] = game.winner(w, classes[i], classes[k], mode)
                positions[mode] += game.positions_visited
    return positions, winners


def test_tiny_universe_search_does_not_depend_on_query_or_member_order():
    # members are tried in sort_key order whatever order the ids were
    # interned in, so a shared solver visits the same positions in total
    positions, winners = _tiny_universe_answers()
    assert positions == {FoMode.EXISTENTIAL: 19_304, FoMode.FULL: 22_520}
    for seed in (1, 2, 3):
        assert _tiny_universe_answers(random.Random(seed)) == (positions, winners)


def _order_three_answers(solver):
    """Per mode and rank 1..5 on the order-3 root: the winner, the
    positions visited and the synthesized text, or the cap flag hit and
    the positions visited when it was hit."""
    a, b = linorder_instances(3)
    answers = []
    for mode in FoMode:
        for w in range(1, 6):
            try:
                won = solver.winner(w, a, b, mode)
            except ResourceCapError as exc:
                flag = str(exc).partition("(--")[2].partition(")")[0]
                answers.append((flag, solver.positions_visited))
                continue
            visited = solver.positions_visited
            text = None
            if won is Player.I:
                text = format_fo(solver.synthesize(a, b, w, mode))
            answers.append((won, visited, text, solver.positions_visited))
    return answers


@pytest.mark.parametrize(
    "caps",
    [
        {"cap_positions": 2},  # the third position is a rank-1 child
        {"cap_positions": 3000},
        {"cap_choice_functions": 2},
        {"cap_choice_functions": 30},
        # inside the second of the four 19,683-child rank-1 scans the full
        # rank-4 query refutes, each recorded in bulk when it fits the cap
        {"cap_positions": 30_000},
    ],
)
def test_a_cap_leaves_the_solver_as_the_reference(caps):
    # a cap error inside a choice scan must leave the counted positions and
    # the memo as the tuple-keyed search does, and no chooser record of a
    # class over the choice-function cap; raised caps then finish the same way
    game, ref = FoGame(**caps), suites.ReferenceFoGame(**caps)
    capped = _order_three_answers(game)
    assert capped == _order_three_answers(ref)
    [flag] = [name.replace("_", "-") for name in caps]
    assert any(answer[0] == flag for answer in capped)
    for head, tail, *_ in game._choosers.values():
        assert len(head) * len(tail) <= game.cap_choice_functions
    for solver in (game, ref):
        solver.cap_positions = 10**6
        solver.cap_choice_functions = 10**5
    raised = _order_three_answers(game)
    assert raised == _order_three_answers(ref)
    assert [answer[0] for answer in raised] == [Player.II] * 4 + [Player.I] + [
        Player.II
    ] * 4 + [Player.I]


def test_the_order_three_memo_is_the_reference_memo():
    # the bulk record of a refuted rank-1 scan stores the positions, and the
    # winners, that the reference stores one choice function at a time
    a, b = linorder_instances(3)
    game, ref = FoGame(), suites.ReferenceFoGame()
    assert game.minsize(a, b, FoMode.FULL, w_max=5) == 5
    assert ref.minsize(a, b, FoMode.FULL, w_max=5) == 5

    def bits(ids):
        return sum(1 << game._ids[ref._by_id[sid]] for sid in ids)

    got = {
        (full, w, dom, am, bm): won
        for (full, w, dom), table in game._memo.items()
        for bm, row in table.items()
        for am, won in row.items()
    }
    want = {
        (full, w, dom, bits(ak), bits(bk)): won
        for (full, w, ak, bk, dom), won in ref._memo.items()
    }
    assert len(got) == game.positions_visited == 82_799
    assert got == want


def _one_element_classes():
    """Classes of one and two structures over one-element universes of a
    unary and a binary symbol, with nothing bound."""
    vocab = Vocabulary.make(("P1", 1), ("E", 2))
    structs = [
        Structure(Model.make(vocab, 1, {"P1": p, "E": e}), EMPTY_ASSIGNMENT)
        for p in ((), [(0,)])
        for e in ((), [(0, 0)])
    ]
    return [
        StructureClass.of(combo, vocabulary=vocab, domain=())
        for k in (1, 2)
        for combo in itertools.combinations(structs, k)
    ]


def test_a_rank_one_scan_agrees_with_deciding_every_choice_function(monkeypatch):
    # the closed-form test of a rank-1 scan against the first child that
    # wins when every choice function's child is decided in turn, on every
    # chooser record and fixed side the searches below scan, in both
    # orientations and against an empty fixed side
    scans = {}
    scan = FoGame._choice_scan

    def logged(self, mode, w, left, m, fm, dom2, j):
        if w == 2:
            scans[self, mode, m, fm, dom2, j] = None
        return scan(self, mode, w, left, m, fm, dom2, j)

    monkeypatch.setattr(FoGame, "_choice_scan", logged)
    _tiny_universe_answers()
    for mode in FoMode:
        for n in (2, 3):
            assert FoGame().minsize(*linorder_instances(n), mode, w_max=5) == 2 * n - 1
        game = FoGame()
        for _, a, b in suites._linorder_positions(n_max=3):
            for w in (1, 2, 3):
                game.winner(w, a, b, mode)
        game = FoGame()
        for a, b in itertools.product(_one_element_classes(), repeat=2):
            for w in (2, 3):
                game.winner(w, a, b, mode)
    monkeypatch.undo()
    decided = {True: 0, False: 0}
    for game, mode, m, fm, dom2, j in scans:
        choices = [
            sum({1 << ext for ext in picks})
            for picks in itertools.product(
                *(game._extensions(sid, j) for sid in game._ordered(m))
            )
        ]
        for fixed in (fm, 0):
            for left in (True, False):
                child = (lambda cb: (cb, fixed)) if left else (lambda cb: (fixed, cb))
                want = next(
                    (
                        cb
                        for cb in choices
                        if game._winning_move(mode, 1, *child(cb), dom2) is not None
                    ),
                    None,
                )
                # a fresh memo, so every child is decided by this scan
                clone = copy.copy(game)
                clone._memo, clone.positions_visited = {}, 0
                assert clone._choice_scan(mode, 2, left, m, fixed, dom2, j) == want
                decided[want is None] += 1
    assert all(decided.values())


def test_refuted_rank_one_scans_share_their_record_as_memo_rows():
    # the full-mode order-3 root refutes four 19,683-child rank-1 scans of
    # one chooser, each against another star: three of the four star rows
    # are the chooser's record itself, and the fourth, which later gained
    # three entries, was copied before it was written
    a, b = linorder_instances(3)
    game = FoGame()
    assert game.minsize(a, b, FoMode.FULL, w_max=5) == 5
    assert game.positions_visited == 82_799
    [lost] = [
        record[4]
        for record in game._choosers.values()
        if record[4] is not None and len(record[4]) == 19_683
    ]
    rows = [row for table in game._memo.values() for row in table.values()]
    big = [row for row in rows if len(row) >= 19_683]
    assert len(big) == 4
    assert sum(row is lost for row in big) == 3
    [copied] = [row for row in big if row is not lost]
    assert type(copied) is dict and len(copied) == 19_686
    assert copied.items() >= lost.items()
    assert (len(rows), len({id(row) for row in rows})) == (675, 657)


def _assert_records_intact(game):
    """Every built ``lost`` record is a ``_Lost`` that maps exactly its
    chooser's choice bitsets, in scan order, to False, and every memo row
    is a plain dict or one of those records; returns the number of rows
    that are a record."""
    records = {}
    for head, tail, _, _, lost in game._choosers.values():
        if lost is not None:
            assert type(lost) is _Lost
            assert list(lost.items()) == [(hb | tb, False) for hb in head for tb in tail]
            records[id(lost)] = lost
    shared = 0
    for table in game._memo.values():
        for row in table.values():
            if type(row) is not dict:
                assert row is records.get(id(row))
                shared += 1
    return shared


def test_shared_records_are_never_written(tiny_fo_suite):
    # rows that are a record are copied before their first write, whether
    # _wins decides a position in them, a left scan merges another record
    # into them, or a left scan walks them
    shared = 0
    for mode in FoMode:
        for n in (2, 3):
            game = FoGame()
            assert game.minsize(*linorder_instances(n), mode, w_max=5) == 2 * n - 1
            shared += _assert_records_intact(game)
        game = FoGame()
        for x, y in itertools.product(_one_element_classes(), repeat=2):
            for w in (1, 2, 3, 4):
                game.winner(w, x, y, mode)
        shared += _assert_records_intact(game)
    for game, _ in tiny_fo_suite.values():
        _assert_records_intact(game)
    assert shared


def test_a_right_bulk_walk_copies_a_shared_row_before_writing():
    # on one-element universes a class's star is its one choice function,
    # so the child rows of a refuted right scan with chooser y are the row
    # of y's star, which a refuted left scan with chooser x may have shared
    # as x's record; a right scan against the star of another class z
    # writes a new entry there, into a copy
    mode, dom2, j = FoMode.FULL, (0,), 0
    copied = 0
    for x, y, z in itertools.product(_one_element_classes(), repeat=3):
        game = FoGame()
        xm, ym, _ = game._enter(x, y, 2)
        zm = game._class(z)[0]
        star_y, star_z = game._branching(2, ym, j), game._branching(2, zm, j)
        if game._choice_scan(mode, 2, True, xm, star_y, dom2, j) is not None:
            continue
        table = game._memo[True, 1, dom2]
        lost = game._choosers[xm, j][4]
        if table[star_y] is not lost or star_z in lost:
            continue
        before = game.positions_visited
        if game._choice_scan(mode, 2, False, ym, star_z, dom2, j) is not None:
            continue
        assert game.positions_visited == before + 1
        row = table[star_y]
        assert row is not lost and type(row) is dict
        assert row == {**lost, star_z: False}
        assert _assert_records_intact(game) == 0
        copied += 1
    assert copied


def test_atom_masks_pick_the_first_atomic_separator():
    def check(game, a, b):
        root = game._enter(a, b, 1)
        seps = atomic_separators(a, b)
        move = game._winning_move(FoMode.FULL, 1, *root)
        assert move == (("win",) if seps else None)
        if seps:
            atom, positive = seps[0]
            literal = atom if positive else FoNot(atom)
            assert game._extract(FoMode.FULL, 1, *root) == literal

    game = FoGame()
    for _, a, b in suites._linorder_positions(n_max=3):
        check(game, a, b)
        check(game, b, a)
        empty = StructureClass.of((), vocabulary=a.vocabulary, domain=a.domain)
        check(game, empty, b)
        check(game, b, empty)
    _, classes = suites.tiny_fo_universe()
    game = FoGame()
    for a in classes:
        for b in classes:
            check(game, a, b)


def test_atoms_are_evaluated_only_while_interning(monkeypatch):
    # a root member's truth values come from one atom_mask pass, an
    # extension's from one call of its family's evaluator; each is made
    # while its id is interned (the id it fills is the next new one), once
    # per id, and none is made during search or synthesis
    filled = []
    families = 0

    def counting_mask(model, values):
        filled.append(len(game._by_id))
        return atom_mask(model, values)

    def counting_family(model, head, tail):
        nonlocal families
        families += 1
        mask_of = family_masks(model, head, tail)

        def counted(a):
            filled.append(len(game._by_id))
            return mask_of(a)

        return counted

    monkeypatch.setattr("efgames.fogame.atom_mask", counting_mask)
    monkeypatch.setattr("efgames.fogame.family_masks", counting_family)
    a, b = linorder_instances(3)
    game = FoGame()
    assert game.minsize(a, b, FoMode.FULL, w_max=4) is None
    assert game.synthesize(a, b, 5, FoMode.EXISTENTIAL) is not None
    assert len(filled) == len(game._by_id)
    assert filled == list(range(len(game._by_id)))
    # the atoms that skip x_j are evaluated once per family
    assert 0 < families <= len(game._ext)


def _reference_mask(st):
    """The atom mask of st read atom by atom through the general evaluator."""
    variables = [j for j, _ in st.assignment.items]
    atoms = atom_candidates(st.model.vocabulary, variables)
    return sum(1 << i for i, atom in enumerate(atoms) if fo_eval(atom, st))


def _random_structures(rng, vocab, count):
    """Seeded models over vocab with up to three elements, each under an
    assignment to a random set of variables (non-contiguous, possibly
    empty), whose values may repeat."""
    for _ in range(count):
        size = rng.randint(1, 3)
        rels = {}
        for name, arity in vocab.symbols:
            rows = list(itertools.product(range(size), repeat=arity))
            rels[name] = rng.sample(rows, rng.randint(0, len(rows)))
        model = Model.make(vocab, size, rels)
        variables = rng.sample(range(6), rng.randint(0, 3))
        yield Structure(model, Assignment.make({j: rng.randrange(size) for j in variables}))


def test_atom_mask_matches_fo_eval(tiny_fo_suite):
    games = []
    for n in (2, 3):
        a, b = linorder_instances(n)
        for mode in FoMode:
            game = FoGame()
            game.minsize(a, b, mode, w_max=2 * n - 1)
            games.append(game)
    games.extend(game for game, _ in tiny_fo_suite.values())
    for width in (2, 3):
        even, odd = (_one_point_class(prop) for prop in parity_property(width))
        for mode in FoMode:
            game = FoGame()
            game.minsize(even, odd, mode, w_max=3)
            games.append(game)
    vocab = Vocabulary.make(("U", 1), ("E", 2), ("T", 3))
    structures = list(_random_structures(random.Random(23), vocab, 300))
    assert {len(st.assignment.items) for st in structures} == {0, 1, 2, 3}
    values = [[a for _, a in st.assignment.items] for st in structures]
    assert any(len(set(vals)) < len(vals) for vals in values)
    assert any(st.assignment.domain == {0, 2, 5} for st in structures)
    for st in structures:
        if not st.assignment.items:
            assert atom_mask(st.model, ()) == 0
    game = FoGame()
    for st in structures:
        game._intern(st.model, st.assignment.items)
    games.append(game)
    for game in games:
        for sid, (model, items) in enumerate(game._by_id):
            st = Structure(model, Assignment(items))
            want = _reference_mask(st)
            assert atom_mask(model, [a for _, a in items]) == want, st
            assert game._masks[sid] == want, st


def test_extension_masks_match_fo_eval():
    # the random structures of the test above, each extended by every
    # variable it assigns (rebinding it) and by fresh ones below, between
    # and above those: every sibling's mask is the reference mask
    vocab = Vocabulary.make(("U", 1), ("E", 2), ("T", 3))
    structures = list(_random_structures(random.Random(23), vocab, 300))
    game = FoGame()
    kinds = set()
    for st in structures:
        sid = game._intern(st.model, st.assignment.items)
        dom = st.assignment.domain
        for j in range(7):
            if j in dom:
                kinds.add("rebound")
            elif not dom:
                kinds.add("first")
            else:
                kinds.add(
                    "below" if j < min(dom) else "above" if j > max(dom) else "between"
                )
            exts = game._extensions(sid, j)
            assert len(exts) == st.model.universe_size
            for a, ext in enumerate(exts):
                model, items = game._by_id[ext]
                assert items == st.assignment.extend(j, a).items
                want = _reference_mask(Structure(model, Assignment(items)))
                assert atom_mask(model, [x for _, x in items]) == want
                assert game._masks[ext] == want, (st, j, a)
    assert kinds == {"rebound", "first", "below", "between", "above"}
    # a family that meets an id interned before (rebinding gives the
    # member itself back) keeps that id, and the columns transpose the masks
    assert len(game._by_id) < len(structures) * 7 * 3
    for sid, (cols, mask) in enumerate(zip(game._cols_of, game._masks)):
        assert len(cols) == len(game._atoms_of[sid])
        for i, col in enumerate(cols):
            assert col >> sid & 1 == mask >> i & 1


def test_games_share_atom_objects_but_not_columns():
    a, b = linorder_instances(3)
    first, second = FoGame(), FoGame()
    for game in (first, second):
        assert game.minsize(a, b, FoMode.EXISTENTIAL, w_max=5) == 5
    assert first._atom_lists.keys() == second._atom_lists.keys()
    for lists, (atoms, cols) in first._atom_lists.items():
        other_atoms, other_cols = second._atom_lists[lists]
        assert atoms is not other_atoms and cols is not other_cols
        assert len(atoms) == len(other_atoms)
        assert all(x is y for x, y in zip(atoms, other_atoms))


def _solved_games(tiny_fo_suite):
    """The tiny universe's games and fresh games solved on linorder n = 2
    and 3 and on boolcomb n = 1, in both modes."""
    games = [game for game, _ in tiny_fo_suite.values()]
    for a, b in (*(linorder_instances(n) for n in (2, 3)), boolcomb_instances(1)):
        for mode in FoMode:
            game = FoGame()
            assert game.minsize(a, b, mode, w_max=5) is not None
            games.append(game)
    return games


def test_extension_keys_are_the_keys_of_extended_structures(tiny_fo_suite):
    # an extension is interned from its key alone; the key is the one the
    # checked Structure and Assignment.extend give, so the checks hold
    for game in _solved_games(tiny_fo_suite):
        assert game._ext
        for (sid, j), exts in game._ext.items():
            model, items = game._by_id[sid]
            st = Structure(model, Assignment(items))
            assert len(exts) == model.universe_size
            for a, ext in enumerate(exts):
                assert game._by_id[ext] == (st.model, st.assignment.extend(j, a).items)


def test_extensions_drop_the_bound_variable_first():
    # rebinding a variable of the domain replaces its value, as extend does
    for a, b in (linorder_instances(2), boolcomb_instances(1)):
        game = FoGame()
        game.minsize(a, b, FoMode.FULL, w_max=3)
        for sid, (model, items) in enumerate(list(game._by_id)):
            st = Structure(model, Assignment(items))
            for j in {v for v, _ in items} | {0, 1, 2}:
                for x, ext in enumerate(game._extensions(sid, j)):
                    want = Structure(model, st.assignment.extend(j, x))
                    assert game._by_id[ext] == (want.model, want.assignment.items)


def test_reinterning_a_structure_gives_its_id(tiny_fo_suite):
    # also from an equal model that is another object, read back from JSON
    for game in _solved_games(tiny_fo_suite):
        count = len(game._by_id)
        for sid, (model, items) in enumerate(game._by_id[:count]):
            st = Structure(model, Assignment(items))
            copy = structure_from_json(structure_to_json(st))
            assert copy.model is not model
            assert game._intern(st.model, st.assignment.items) == sid
            assert game._intern(copy.model, copy.assignment.items) == sid
            assert game._keys[sid] == (copy.model.sort_key(), copy.assignment.items)
        assert len(game._by_id) == len(game._ids) == len(game._masks) == count


def test_atom_columns_transpose_the_atom_masks(tiny_fo_suite):
    # bit sid of column i is bit i of the mask of sid, and a column holds
    # only ids of its own atom list
    a, b = linorder_instances(3)
    order = FoGame()
    for mode in FoMode:
        assert order.minsize(a, b, mode, w_max=5) == 5
    for game in (order, *(game for game, _ in tiny_fo_suite.values())):
        assert len(game._cols_of) == len(game._masks) == len(game._by_id)
        for atoms, cols in game._atom_lists.values():
            assert len(cols) == len(atoms)
            ids = sum(1 << sid for sid, got in enumerate(game._cols_of) if got is cols)
            assert all(col & ~ids == 0 for col in cols)
        for sid, (cols, mask) in enumerate(zip(game._cols_of, game._masks)):
            for i, col in enumerate(cols):
                assert col >> sid & 1 == mask >> i & 1


def _one_point_class(prop):
    """The strings of prop as one-point structures over unary P1..Pw, with
    x0 bound to the element: P_i holds on it iff s_i = 1."""
    names = [f"P{i}" for i in range(1, prop.width + 1)]
    vocab = Vocabulary.make(*((name, 1) for name in names))
    members = []
    for s in prop.strings():
        ones = {name: [(0,)] for i, name in enumerate(names, 1) if s.bit(i)}
        members.append(Structure(Model.make(vocab, 1, ones), Assignment.make({0: 0})))
    return StructureClass.of(members, vocabulary=vocab, domain={0})


def test_the_games_agree_on_one_point_structures():
    # a literal p_i is the atom P_i(x0), and a supplement only binds the one
    # element again, so both first-order modes cost what the strings cost;
    # PropGame is a solver of its own, which checks the literal splits
    pairs = [
        (StringProperty(2, s), StringProperty(2, r))
        for s in range(1, 16)
        for r in range(1, 16)
        if not s & r
    ]
    rng = random.Random(21)
    for _ in range(200):
        strings = rng.sample(range(8), rng.randint(2, 8))
        cut = rng.randint(1, len(strings) - 1)
        pairs.append(
            (
                StringProperty(3, sum(1 << e for e in strings[:cut])),
                StringProperty(3, sum(1 << e for e in strings[cut:])),
            )
        )
    games = {width: PropGame(width) for width in (2, 3)}
    fo_games = {mode: FoGame() for mode in FoMode}
    for left, right in pairs:
        size = games[left.width].minsize(left, right)
        a, b = _one_point_class(left), _one_point_class(right)
        for mode, game in fo_games.items():
            assert game.minsize(a, b, mode, w_max=size) == size, (left, right, mode)


# -- the bitset search against the tuple-keyed reference ----------------------


@pytest.mark.parametrize("mode, w_max", [(FoMode.EXISTENTIAL, 4), (FoMode.FULL, 3)])
def test_search_matches_the_reference_on_the_tiny_universe(mode, w_max):
    _, classes = suites.tiny_fo_universe()
    queries = [(a, b, w) for a in classes for b in classes for w in range(1, w_max + 1)]
    assert suites.fo_search_mismatches(queries, mode) == []


def test_search_matches_the_reference_on_the_order_lemma_positions():
    positions = list(suites._linorder_positions(n_max=3))
    assert len(positions) == 20
    existential = [(a, b, w) for n, a, b in positions for w in range(1, 2 * n)]
    assert suites.fo_search_mismatches(existential, FoMode.EXISTENTIAL) == []
    # rank 4 with variables bound takes seconds on the reference, so full
    # mode goes to rank 4 only at the roots, which holds the deep refutation
    full = [
        (a, b, w)
        for n, a, b in positions
        for w in range(1, min(2 * n - 1, 3 if a.domain else 5))
    ]
    assert suites.fo_search_mismatches(full, FoMode.FULL) == []


def test_search_matches_the_reference_when_variables_are_reused():
    # asked at rank 5, the 2-order against the 3-order reaches an 81-member
    # star, so the two searches must also stop at the same cap
    a, b = linorder_instances(3)
    for mode, w_max in ((FoMode.EXISTENTIAL, 5), (FoMode.FULL, 3)):
        queries = [(a, b, w) for w in range(1, w_max + 1)]
        queries += [(b, a, w) for w in range(1, w_max + 1)]
        assert suites.fo_search_mismatches(queries, mode, reuse=True) == []


def test_search_matches_the_reference_with_an_empty_side():
    _, classes = suites.tiny_fo_universe()
    picked = [classes[0], classes[-1]]
    for _, a, b in suites._linorder_positions(n_max=2):
        picked += [a, b]
    queries = []
    for cls in picked:
        empty = StructureClass.of((), vocabulary=cls.vocabulary, domain=cls.domain)
        for w in (1, 2, 3):
            queries += [(empty, cls, w), (cls, empty, w), (empty, empty, w)]
    for mode in (FoMode.EXISTENTIAL, FoMode.FULL):
        assert suites.fo_search_mismatches(queries, mode) == []
