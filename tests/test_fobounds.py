import random

import pytest

import suites
from efgames import (
    EMPTY_ASSIGNMENT,
    Assignment,
    BitString,
    BoolCombClass,
    Exists,
    FoGame,
    FoMode,
    InputError,
    LinOrderClass,
    Model,
    RelAtom,
    Structure,
    StructureClass,
    boolcomb_alternating_sentence,
    boolcomb_existential_sentence,
    boolcomb_instances,
    boolcomb_vocabulary,
    classify_boolcomb,
    classify_linorder,
    fo_quantifier_rank,
    fo_separates,
    fo_size,
    is_existential,
    linear_order,
    linorder_existential_sentence,
    linorder_instances,
    linorder_log_sentence,
    linorder_vocabulary,
    measure_M,
    measure_N,
)


# ---------------------------------------------------------------------------
# combination family


def adversary(n, s):
    _, right = boolcomb_instances(n)
    return right.members[s]


def test_combination_instances_shape():
    for n in (1, 2, 3):
        left, right = boolcomb_instances(n)
        assert len(left.members) == 1
        assert left.members[0].model.universe_size == 2**n
        assert len(right.members) == 2**n
        for member in right.members:
            assert member.model.universe_size == 2 * (2**n - 1)
            assert member.assignment.domain == frozenset()


def test_combination_instances_range():
    with pytest.raises(InputError):
        boolcomb_instances(0)
    with pytest.raises(InputError):
        boolcomb_instances(5)


def test_classify_flawless():
    member = adversary(1, 1)  # drops trace 1, pairs trace 0 as (0, 1)
    got = classify_boolcomb(member, BitString(1, 1), EMPTY_ASSIGNMENT)
    assert got == BoolCombClass("flawless")
    on_preferred = Structure(member.model, Assignment.make({0: 0}))
    got = classify_boolcomb(on_preferred, BitString(1, 1), Assignment.make({0: 0}))
    assert got == BoolCombClass("flawless")


def test_classify_good_enough():
    member = adversary(1, 1)
    # the reference points at the dropped trace; the member answers with
    # the spare of the Hamming neighbor
    on_spare = Structure(member.model, Assignment.make({0: 1}))
    got = classify_boolcomb(on_spare, BitString(1, 1), Assignment.make({0: 1}))
    assert got == BoolCombClass("good_enough", BitString(1, 0))


def test_classify_other():
    member = adversary(1, 1)
    # spare copy used although the reference trace is present
    on_spare = Structure(member.model, Assignment.make({0: 1}))
    got = classify_boolcomb(on_spare, BitString(1, 1), Assignment.make({0: 0}))
    assert got == BoolCombClass("other")


def test_classify_validates_input():
    member = adversary(1, 1)
    with pytest.raises(InputError):  # s does not match the missing trace
        classify_boolcomb(member, BitString(1, 0), EMPTY_ASSIGNMENT)
    with pytest.raises(InputError):  # domain mismatch
        classify_boolcomb(member, BitString(1, 1), Assignment.make({0: 0}))
    left, _ = boolcomb_instances(1)
    with pytest.raises(InputError):  # full model is not an adversary
        classify_boolcomb(left.members[0], BitString(1, 0), EMPTY_ASSIGNMENT)


def test_classify_checks_every_reference_value_before_classifying():
    # x1 already fails the flawless test, so a check made on the way would
    # never reach x2's value
    member = boolcomb_instances(2)[1].members[0]  # drops trace 0
    beta = Structure(member.model, Assignment.make({0: 0, 1: 1, 2: 0}))
    alpha = Assignment.make({0: 1, 1: 0, 2: 99})
    with pytest.raises(InputError, match="reference value 99 for x2"):
        classify_boolcomb(beta, BitString(2, 0), alpha)


def test_measure_m_on_fresh_instances():
    for n in (1, 2, 3):
        left, right = boolcomb_instances(n)
        assert measure_M(left, right) == (n + 1) * 2**n


def test_measure_m_mixed_assignments():
    n = 1
    left, right = boolcomb_instances(n)
    ref = Structure(left.members[0].model, Assignment.make({0: 0}))
    flawless = Structure(right.members[1].model, Assignment.make({0: 0}))
    good = Structure(right.members[0].model, Assignment.make({0: 1}))
    got = measure_M(
        StructureClass.of([ref]),
        StructureClass.of([flawless, good]),
    )
    assert got == (n + 1) + 1


def test_measure_m_all_other_is_zero():
    left, right = boolcomb_instances(1)
    ref = Structure(left.members[0].model, Assignment.make({0: 0}))
    stray = Structure(right.members[1].model, Assignment.make({0: 1}))
    assert measure_M(StructureClass.of([ref]), StructureClass.of([stray])) == 0


def test_measure_m_needs_single_reference():
    left, right = boolcomb_instances(1)
    both = StructureClass.of(list(right.members))
    with pytest.raises(InputError):
        measure_M(both, right)
    paired = StructureClass.of([right.members[0]])
    with pytest.raises(InputError, match="must realize every trace once"):
        measure_M(paired, right)
    # trace 1 once and trace 0 twice: neither full nor paired
    odd = Model.make(boolcomb_vocabulary(1), 3, {"P1": [(0,)]})
    with pytest.raises(InputError, match="not from the combination family"):
        measure_M(StructureClass.of([Structure(odd)]), right)


def test_combination_existential_sentence():
    for n in (1, 2, 3):
        f = boolcomb_existential_sentence(n)
        assert fo_size(f) == (n + 1) * 2**n
        assert is_existential(f)
        left, right = boolcomb_instances(n)
        assert fo_separates(f, left, right)


def test_combination_alternating_sentence():
    for n in (1, 2, 3):
        f = boolcomb_alternating_sentence(n)
        assert fo_size(f) == 8 * n + 4
        assert not is_existential(f)
        assert fo_quantifier_rank(f) == 2
        left, right = boolcomb_instances(n)
        assert fo_separates(f, left, right)


def test_certificate_meets_game_value_smallest_combination():
    left, right = boolcomb_instances(1)
    cert = measure_M(left, right)
    exact = FoGame().minsize(left, right, mode=FoMode.EXISTENTIAL, w_max=6)
    assert cert == 4
    assert exact == 4


# ---------------------------------------------------------------------------
# linear-order family


def order_struct(k, assignment=()):
    return Structure(linear_order(k), Assignment.make(assignment))


def test_order_instances_shape():
    for n in (2, 5, 8):
        left, right = linorder_instances(n)
        assert left.members[0].model.universe_size == n
        assert right.members[0].model.universe_size == n - 1
    with pytest.raises(InputError):
        linorder_instances(1)
    with pytest.raises(InputError):
        linorder_instances(9)
    with pytest.raises(InputError):
        linear_order(0)


def test_sentences_reject_n_outside_their_family():
    for sentence, bad in (
        (boolcomb_existential_sentence, (0, 5)),
        (boolcomb_alternating_sentence, (0, 5)),
        (linorder_existential_sentence, (1, 9)),
        (linorder_log_sentence, (1, 9)),
    ):
        for n in bad:
            with pytest.raises(InputError, match="supports n ="):
                sentence(n)


def test_classify_empty_assignment_is_nice():
    for n in (2, 3, 5):
        got = classify_linorder(order_struct(n - 1), order_struct(n))
        assert got == LinOrderClass("nice", defect=0, delta=n - 1)


def test_classify_single_point():
    # reference pins the middle of three; the member answers with its
    # first element, so only the left boundary segment disagrees
    got = classify_linorder(order_struct(2, {0: 0}), order_struct(3, {0: 1}))
    assert got == LinOrderClass("nice", defect=0, delta=1)
    got = classify_linorder(order_struct(2, {0: 1}), order_struct(3, {0: 1}))
    assert got == LinOrderClass("nice", defect=1, delta=0)


def test_classify_collapse_is_weakly_acceptable():
    # distinct reference elements may share an image; this one lands on a
    # single defect whose own step count is zero, so it weighs only 1
    got = classify_linorder(
        order_struct(2, {0: 0, 1: 0}), order_struct(3, {0: 0, 1: 1})
    )
    assert got == LinOrderClass("nice", defect=1, delta=0)


def test_classify_acceptable():
    # zero defects: the member mirrors the reference exactly
    got = classify_linorder(order_struct(3, {0: 1}), order_struct(3, {0: 1}))
    assert got == LinOrderClass("acceptable")
    # three defects: every boundary segment disagrees
    got = classify_linorder(
        order_struct(3, {0: 0, 1: 2}), order_struct(4, {0: 1, 1: 2})
    )
    assert got == LinOrderClass("acceptable")
    # a collapse can also disagree everywhere
    got = classify_linorder(
        order_struct(2, {0: 1, 1: 1}), order_struct(3, {0: 0, 1: 1})
    )
    assert got == LinOrderClass("acceptable")


def test_classify_other():
    # order reversed
    got = classify_linorder(
        order_struct(2, {0: 1, 1: 0}), order_struct(3, {0: 0, 1: 1})
    )
    assert got == LinOrderClass("other")
    # variables sharing a reference element map to different images
    got = classify_linorder(
        order_struct(2, {0: 0, 1: 1}), order_struct(3, {0: 1, 1: 1})
    )
    assert got == LinOrderClass("other")


def test_classify_order_validates_input():
    with pytest.raises(InputError):
        classify_linorder(order_struct(2, {0: 0}), order_struct(3))
    left, _ = boolcomb_instances(1)
    with pytest.raises(InputError):
        classify_linorder(left.members[0], order_struct(3))
    reversed_order = Model.make(linorder_vocabulary(), 2, {"<": [(1, 0)]})
    with pytest.raises(InputError, match="natural strict order"):
        classify_linorder(Structure(reversed_order), order_struct(3))
    # as many pairs as the natural order on 0..2, but not all of them i < j
    for pairs in ([(0, 1), (1, 2), (2, 1)], [(0, 1), (0, 2), (1, 1)]):
        model = Model.make(linorder_vocabulary(), 3, {"<": pairs})
        with pytest.raises(InputError, match="natural strict order"):
            classify_linorder(Structure(model), order_struct(3))


def test_measure_n_on_fresh_instances():
    for n in range(2, 9):
        left, right = linorder_instances(n)
        assert measure_N(left, right) == 2 * n - 1


def test_measure_n_without_nice_members_is_zero():
    ref = StructureClass.of([order_struct(3, {0: 0})])
    stray = StructureClass.of([order_struct(2, {0: 1})])
    assert measure_N(ref, stray) == 0


def test_measure_n_needs_single_reference():
    two = StructureClass.of([order_struct(3), order_struct(4)])
    _, right = linorder_instances(3)
    with pytest.raises(InputError):
        measure_N(two, right)


def test_measure_n_weighs_the_lowest_segment_by_its_chain():
    # The reference picks its top element, so the member's only defect is
    # the lowest segment (delta 1); "some y lies below x0" refutes it at
    # size 2, the exact size, so N may claim no more.
    ref = StructureClass.of([order_struct(2, {0: 1})])
    adv = StructureClass.of([order_struct(1, {0: 0})])
    assert measure_N(ref, adv) == 2
    assert FoGame().minsize(ref, adv, mode=FoMode.EXISTENTIAL, w_max=3) == 2
    assert fo_separates(Exists(1, RelAtom("<", (1, 0))), ref, adv)


def test_order_existential_sentence():
    for n in range(2, 9):
        f = linorder_existential_sentence(n)
        assert fo_size(f) == 2 * n - 1
        assert fo_quantifier_rank(f) == n
        assert is_existential(f)
        left, right = linorder_instances(n)
        assert fo_separates(f, left, right)


def test_order_log_sentence():
    for n in range(2, 9):
        f = linorder_log_sentence(n)
        assert fo_quantifier_rank(f) == (n - 1).bit_length() + 1
        assert is_existential(f)
        left, right = linorder_instances(n)
        assert fo_separates(f, left, right)


def test_certificate_meets_game_value_short_orders():
    for n, expect in ((2, 3), (3, 5)):
        left, right = linorder_instances(n)
        cert = measure_N(left, right)
        exact = FoGame().minsize(left, right, mode=FoMode.EXISTENTIAL, w_max=8)
        assert cert == expect
        assert exact == expect


# ---------------------------------------------------------------------------
# measure invariants under game moves


def test_measure_m_ignores_atomic_wins():
    assert suites.lemma_measure_m_blindness() == []


def test_measure_m_subadditive_under_splits():
    assert suites.lemma_measure_m_subadditivity(random.Random(211)) == []


def test_measure_m_survives_supplements():
    assert suites.lemma_measure_m_supplement() == []



def test_measure_m_never_exceeds_the_exact_size():
    assert suites.lemma_measure_m_soundness() == []

def test_measure_n_ignores_atomic_wins():
    assert suites.lemma_measure_n_blindness() == []


def test_measure_n_subadditive_under_splits():
    assert suites.lemma_measure_n_subadditivity(random.Random(409)) == []


def test_measure_n_survives_supplements():
    assert suites.lemma_measure_n_supplement() == []


def test_measure_n_never_exceeds_the_exact_size():
    assert suites.lemma_measure_n_soundness() == []
