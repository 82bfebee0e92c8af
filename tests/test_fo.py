import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import efgames
from efgames import (
    EMPTY_ASSIGNMENT,
    And,
    Assignment,
    ContractError,
    EqAtom,
    Exists,
    FoAnd,
    FoNot,
    FoOr,
    Forall,
    InputError,
    Model,
    RelAtom,
    Structure,
    StructureClass,
    Var,
    Vocabulary,
    atom_candidates,
    atomic_separators,
    boolcomb_instances,
    boolcomb_existential_sentence,
    class_from_json,
    class_to_json,
    extend_choice,
    extend_star,
    fo_eval,
    fo_free_vars,
    fo_nnf,
    fo_quantifier_rank,
    fo_separates,
    fo_size,
    format_fo,
    is_existential,
    linear_order,
    linorder_instances,
    structure_from_json,
    structure_to_json,
    truth_table,
)
from efgames import fo, props

PSI2 = Exists(0, Exists(1, RelAtom("<", (0, 1))))


def order_struct(k, assignment=()):
    return Structure(linear_order(k), Assignment.make(assignment))


def test_eval_chain_on_two_element_order():
    assert fo_eval(PSI2, order_struct(2))
    assert not fo_eval(PSI2, order_struct(1))


def test_eval_unary_atom_under_assignment():
    vocab = Vocabulary.make(("P1", 1))
    model = Model.make(vocab, 2, {"P1": [(0,)]})
    st = Structure(model, Assignment.make({0: 0}))
    assert fo_eval(RelAtom("P1", (0,)), st)
    assert not fo_eval(RelAtom("P1", (0,)), Structure(model, Assignment.make({0: 1})))


def test_eval_requires_assigned_free_variables():
    with pytest.raises(ContractError):
        fo_eval(RelAtom("<", (0, 1)), order_struct(2))


def test_eval_rejects_an_atom_outside_the_vocabulary():
    st = order_struct(2, {0: 0})
    with pytest.raises(InputError, match="does not match the vocabulary"):
        fo_eval(RelAtom("<", (0,)), st)
    with pytest.raises(InputError, match="unknown relation symbol"):
        fo_eval(RelAtom("P1", (0,)), st)


def test_atoms_and_quantifiers_reject_bad_variables():
    atom = RelAtom("P1", (0,))
    for make in (
        lambda: Exists(-1, atom),
        lambda: Forall(-1, atom),
        lambda: RelAtom("P", ()),
        lambda: RelAtom("P", (0, -1)),
        lambda: EqAtom(-1, 0),
    ):
        with pytest.raises(InputError):
            make()


def test_size_counts_atoms_and_quantifiers():
    assert fo_size(RelAtom("<", (0, 1))) == 1
    assert fo_size(PSI2) == 3
    assert fo_size(Forall(0, FoOr(RelAtom("P1", (0,)), FoNot(RelAtom("P1", (0,)))))) == 3


def test_quantifier_rank():
    assert fo_quantifier_rank(RelAtom("<", (0, 1))) == 0
    assert fo_quantifier_rank(PSI2) == 2
    assert fo_quantifier_rank(FoAnd(Exists(0, EqAtom(0, 0)), Exists(1, EqAtom(1, 1)))) == 1


def test_nnf_dualizes_quantifiers():
    f = FoNot(Exists(0, RelAtom("P1", (0,))))
    g = fo_nnf(f)
    assert g == Forall(0, FoNot(RelAtom("P1", (0,))))
    assert fo_size(g) == fo_size(f) == 2


def test_a_negated_universal_becomes_an_existential():
    atom = RelAtom("P1", (0,))
    assert fo_nnf(FoNot(Forall(0, atom))) == Exists(0, FoNot(atom))
    assert is_existential(FoNot(Forall(0, FoNot(atom))))


def test_existential_fragment_detection():
    assert is_existential(PSI2)
    assert not is_existential(Forall(0, Exists(1, RelAtom("<", (0, 1)))))
    # normalized first: the double negation hides no universal
    assert is_existential(FoNot(FoNot(PSI2)))
    assert not is_existential(FoNot(Exists(0, EqAtom(0, 0))))


def test_formula_helpers_reject_non_formulas():
    st = order_struct(1, {0: 0})
    helpers = (fo_size, is_existential, fo_nnf, format_fo, fo_free_vars,
               fo_quantifier_rank, lambda f: fo_eval(f, st))
    for bad in ("x0 = x0", FoAnd(EqAtom(0, 0), 3), Exists(0, None)):
        for helper in helpers:
            with pytest.raises(InputError, match="not a formula node"):
                helper(bad)


def test_each_logic_rejects_the_other_logics_atom():
    with pytest.raises(InputError):
        truth_table(And(Var(1), RelAtom("P", (0,))), 1)
    with pytest.raises(InputError):
        fo_eval(Var(1), order_struct(1))
    with pytest.raises(InputError):
        fo_quantifier_rank(Exists(0, Var(1)))


def test_both_logics_share_one_formula_tree():
    assert fo.FoNot is props.Not and fo.FoAnd is props.And and fo.FoOr is props.Or
    assert fo.FoFormula is props.PropFormula
    assert fo.fo_size is props.size
    assert fo.fo_nnf is props.to_nnf
    assert fo.format_fo is props.format_formula
    # an atom's str is its text; its repr is the dataclass one
    assert str(Var(2)) == "p2" and repr(Var(2)) == "Var(index=2)"
    assert str(RelAtom("<", (0, 1))) == "(x0 < x1)"
    assert str(EqAtom(0, 1)) == "(x0 = x1)"
    assert format_fo(Var(1) & ~RelAtom("P1", (0,))) == "(p1 & !P1(x0))"


def _random_fo(rng, vocab_arity, depth, next_var=0):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5 and next_var >= 2:
            return EqAtom(rng.randrange(next_var), rng.randrange(next_var))
        args = tuple(
            rng.randrange(max(next_var, 1)) for _ in range(vocab_arity)
        )
        return RelAtom("E", args)
    roll = rng.random()
    if roll < 0.25:
        return FoNot(_random_fo(rng, vocab_arity, depth - 1, next_var))
    if roll < 0.45:
        return Exists(next_var, _random_fo(rng, vocab_arity, depth - 1, next_var + 1))
    if roll < 0.6:
        return Forall(next_var, _random_fo(rng, vocab_arity, depth - 1, next_var + 1))
    left = _random_fo(rng, vocab_arity, depth - 1, next_var)
    right = _random_fo(rng, vocab_arity, depth - 1, next_var)
    return FoAnd(left, right) if roll < 0.8 else FoOr(left, right)


def test_nnf_preserves_size_and_truth():
    rng = random.Random(29)
    vocab = Vocabulary.make(("E", 2))
    models = [
        Model.make(vocab, k, {"E": [(i, j) for i in range(k) for j in range(k) if rng.random() < 0.5]})
        for k in (1, 2, 3)
    ]
    for _ in range(80):
        f = _random_fo(rng, 2, rng.randint(1, 4))
        g = fo_nnf(f)
        assert fo_size(g) == fo_size(f)
        free = fo_free_vars(f)
        for model in models:
            for bits in range(model.universe_size ** max(len(free), 0)):
                values = {}
                rest = bits
                for v in sorted(free):
                    values[v] = rest % model.universe_size
                    rest //= model.universe_size
                st = Structure(model, Assignment.make(values))
                assert fo_eval(f, st) == fo_eval(g, st)


def test_separates_two_orders():
    a = StructureClass.of(frozenset([order_struct(2)]))
    b = StructureClass.of(frozenset([order_struct(1)]))
    assert fo_separates(PSI2, a, b)


def test_self_equality_never_separates_nonempty_classes():
    vocab = Vocabulary.make(("<", 2))
    a = StructureClass.of(
        frozenset([order_struct(2, {0: 0})]), vocabulary=vocab, domain=frozenset({0})
    )
    b = StructureClass.of(
        frozenset([order_struct(1, {0: 0})]), vocabulary=vocab, domain=frozenset({0})
    )
    assert not fo_separates(EqAtom(0, 0), a, b)


def test_combination_sentence_separates_smallest_instance():
    a, b = boolcomb_instances(1)
    assert fo_separates(boolcomb_existential_sentence(1), a, b)


def test_separates_validates_compatibility():
    a = StructureClass.of(frozenset([order_struct(2)]))
    vocab = Vocabulary.make(("P1", 1))
    other = StructureClass.of(
        frozenset([Structure(Model.make(vocab, 1, {"P1": []}), EMPTY_ASSIGNMENT)])
    )
    with pytest.raises(InputError):
        fo_separates(PSI2, a, other)
    b = StructureClass.of(frozenset([order_struct(1)]))
    with pytest.raises(InputError):
        fo_separates(RelAtom("<", (0, 1)), a, b)  # free variables outside domain


def test_star_extension_counts():
    b = StructureClass.of(frozenset([order_struct(2)]))
    star = extend_star(b, 0)
    assert len(star.members) == 2
    assert star.domain == frozenset({0})
    # two distinct 2-element members star-extend to four structures
    vocab = Vocabulary.make(("P1", 1))
    m1 = Model.make(vocab, 2, {"P1": []})
    m2 = Model.make(vocab, 2, {"P1": [(0,)]})
    pair = StructureClass.of(
        frozenset([Structure(m1, EMPTY_ASSIGNMENT), Structure(m2, EMPTY_ASSIGNMENT)])
    )
    assert len(extend_star(pair, 0).members) == 4


def test_choice_extension_picks_one_element():
    b = StructureClass.of(frozenset([order_struct(2)]))
    chosen = extend_choice(b, {0: 1}, 0)
    assert len(chosen.members) == 1
    assert chosen.members[0].assignment.get(0) == 1
    assert chosen.domain == frozenset({0})


def test_choice_extension_must_be_total_and_in_range():
    b = StructureClass.of(frozenset([order_struct(2)]))
    with pytest.raises(ContractError):
        extend_choice(b, {}, 0)
    with pytest.raises(ContractError):
        extend_choice(b, {0: 5}, 0)
    with pytest.raises(ContractError):
        extend_choice(b, [0, 1], 0)


def test_atom_candidates_cover_relations_and_equalities():
    vocab = Vocabulary.make(("<", 2))
    atoms = atom_candidates(vocab, (0, 1))
    assert RelAtom("<", (0, 1)) in atoms
    assert RelAtom("<", (1, 0)) in atoms
    assert EqAtom(0, 0) in atoms
    assert EqAtom(0, 1) in atoms
    assert atom_candidates(vocab, ()) == []


def test_atom_candidates_are_fresh_lists_of_shared_atoms():
    vocab = Vocabulary.make(("U", 1), ("E", 2), ("T", 3))
    for variables in ((), (0,), (2, 5), (0, 1, 4)):
        # a build from scratch, in the documented order
        want = [
            RelAtom(name, args)
            for name, arity in vocab.symbols
            for args in itertools.product(variables, repeat=arity)
        ]
        want += [EqAtom(a, b) for a, b in itertools.combinations_with_replacement(variables, 2)]
        got = atom_candidates(vocab, variables)
        assert got == want
        got.reverse()
        got.append(EqAtom(9, 9))
        again = atom_candidates(Vocabulary.make(("U", 1), ("E", 2), ("T", 3)), list(variables))
        assert again == want and again is not got
        assert all(x is y for x, y in zip(again, atom_candidates(vocab, variables)))


def test_atomic_separator_found_on_assigned_orders():
    vocab = Vocabulary.make(("<", 2))
    a = StructureClass.of(
        frozenset([order_struct(2, {0: 0, 1: 1})]),
        vocabulary=vocab,
        domain=frozenset({0, 1}),
    )
    b = StructureClass.of(
        frozenset([order_struct(1, {0: 0, 1: 0})]),
        vocabulary=vocab,
        domain=frozenset({0, 1}),
    )
    seps = atomic_separators(a, b)
    assert (RelAtom("<", (0, 1)), True) in seps


def test_no_atomic_separator_on_fresh_instances():
    for n in (1, 2):
        a, b = boolcomb_instances(n)
        assert atomic_separators(a, b) == []


def test_nothing_separates_a_class_from_itself():
    a = StructureClass.of(frozenset([order_struct(3)]))
    assert atomic_separators(a, a) == []


def test_structure_json_round_trip():
    st = order_struct(3, {0: 2})
    obj = structure_to_json(st)
    assert structure_from_json(obj) == st
    cls = StructureClass.of(frozenset([st]))
    assert class_from_json(class_to_json(cls)) == cls


def test_equal_structures_hash_equal_and_find_each_other():
    a, b = order_struct(3, {0: 2, 1: 0}), order_struct(3, {1: 0, 0: 2})
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash((a.model, a.assignment))
    assert {a: "found"}[b] == "found"
    # the kept hash takes no part in equality or repr
    fresh = order_struct(3, {0: 2, 1: 0})
    assert a == fresh and repr(a) == repr(fresh)
    assert "_hash" not in repr(a)
    assert order_struct(3, {0: 1}) != a


def test_structure_json_validation():
    with pytest.raises(InputError):
        structure_from_json({"universe": 2})
    good = structure_to_json(order_struct(2))
    bad = dict(good)
    bad["relations"] = {"<": [[0, 5]]}
    with pytest.raises(InputError):
        structure_from_json(bad)
    bad2 = dict(good)
    bad2["assignment"] = {"0": 9}
    with pytest.raises(InputError):
        structure_from_json(bad2)


def test_structure_json_rejects_a_bool_arity_and_non_decimal_keys():
    good = structure_to_json(order_struct(2, {0: 1}))
    with pytest.raises(InputError, match="bad vocabulary entry"):
        structure_from_json({**good, "vocabulary": [["<", True]]})
    for key in ("1_0", " 1", "1 ", "+1", "-1", "\u0661", ""):
        with pytest.raises(InputError, match="is not a variable index"):
            structure_from_json({**good, "assignment": {key: 1}})
    assert structure_from_json({**good, "assignment": {"00": 1}}) == order_struct(2, {0: 1})


def test_format_uses_infix_for_operators():
    assert format_fo(PSI2) == "exists x0 exists x1 (x0 < x1)"
    f = Forall(0, FoNot(RelAtom("P1", (0,))))
    assert format_fo(f) == "forall x0 !P1(x0)"


def test_assignment_items_are_sorted_on_construction():
    assert Assignment(((1, 0), (0, 1))).items == ((0, 1), (1, 0))
    assert Assignment.make({2: 0, 0: 1}).extend(1, 1).items == ((0, 1), (1, 1), (2, 0))


def test_class_members_share_domain():
    with pytest.raises(InputError):
        StructureClass.of(
            frozenset([order_struct(2, {0: 0}), order_struct(2)])
        )


# pickled where PYTHONHASHSEED is 1, loaded where it is 2: a structure and
# its model must still be found by a fresh equal one in a set
PICKLE_SIDES = [
    (
        "1",
        "import pickle, sys; from efgames import linear_order, Structure, Assignment; "
        "st = Structure(linear_order(3), Assignment.make({0: 2})); hash(st); "
        "sys.stdout.buffer.write(pickle.dumps(st))",
    ),
    (
        "2",
        "import pickle, sys; from efgames import linear_order, Structure, Assignment; "
        "st = pickle.loads(sys.stdin.buffer.read()); "
        "fresh = Structure(linear_order(3), Assignment.make({0: 2})); "
        "print(st == fresh, st in {fresh}, st.model in {fresh.model})",
    ),
]


def test_an_unpickled_structure_hashes_in_the_loading_interpreter():
    src = str(Path(efgames.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    data = b""
    for seed, code in PICKLE_SIDES:
        done = subprocess.run(
            [sys.executable, "-c", code],
            input=data,
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONHASHSEED=seed),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode()
        data = done.stdout
    assert data.decode().split() == ["True", "True", "True"]
