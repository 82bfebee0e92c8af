"""The package's record types: immutable values with slotted fields that
compare, hash, print and pickle as frozen dataclasses did."""

import pickle
from fractions import Fraction

import pytest

import efgames
from efgames import (
    And,
    Assignment,
    BitString,
    BoolCombClass,
    DensityPair,
    EqAtom,
    Exists,
    Forall,
    LeftSplit,
    LinOrderClass,
    Literal,
    Model,
    Not,
    Or,
    PropPosition,
    RelAtom,
    RightSplit,
    StringProperty,
    Structure,
    StructureClass,
    Var,
    Vocabulary,
    WinClaim,
    linear_order,
)
from efgames.formula import Record

EDGE = Vocabulary.make(("E", 2))


def _structure():
    return Structure(Model.make(EDGE, 2, {"E": [(0, 1)]}), Assignment(((0, 1),)))


def _prop():
    return StringProperty(2, 0b1001)


# each record type, a function that builds one value, and its fields in order
RECORDS = [
    (Not, lambda: Not(Var(1)), ("child",)),
    (And, lambda: And(Var(1), Var(2)), ("left", "right")),
    (Or, lambda: Or(Var(1), Var(2)), ("left", "right")),
    (Exists, lambda: Exists(0, RelAtom("E", (0, 0))), ("var", "child")),
    (Forall, lambda: Forall(0, RelAtom("E", (0, 0))), ("var", "child")),
    (Vocabulary, lambda: Vocabulary((("E", 2), ("P", 1))), ("symbols",)),
    (
        Model,
        lambda: Model.make(EDGE, 2, {"E": [(0, 1), (1, 1)]}),
        ("vocabulary", "universe_size", "relations"),
    ),
    (Assignment, lambda: Assignment(((2, 0), (0, 1))), ("items",)),
    (Structure, _structure, ("model", "assignment")),
    (
        StructureClass,
        lambda: StructureClass.of([_structure()]),
        ("vocabulary", "domain", "members"),
    ),
    (RelAtom, lambda: RelAtom("E", (0, 1)), ("symbol", "args")),
    (EqAtom, lambda: EqAtom(0, 1), ("left", "right")),
    (BitString, lambda: BitString(3, 5), ("width", "bits")),
    (StringProperty, _prop, ("width", "mask")),
    (Var, lambda: Var(2), ("index",)),
    (Literal, lambda: Literal(2, False), ("var", "positive")),
    (
        PropPosition,
        lambda: PropPosition(3, _prop(), StringProperty(2, 0b0110)),
        ("rank", "left", "right"),
    ),
    (WinClaim, lambda: WinClaim(Literal(1, True)), ("literal",)),
    (LeftSplit, lambda: LeftSplit(1, 2, _prop(), StringProperty(2, 1)), ("u", "v", "c", "d")),
    (RightSplit, lambda: RightSplit(1, 2, _prop(), StringProperty(2, 1)), ("u", "v", "c", "d")),
    (BoolCombClass, lambda: BoolCombClass("good_enough", BitString(2, 3)), ("kind", "target")),
    (LinOrderClass, lambda: LinOrderClass("nice", 1, 2), ("kind", "defect", "delta")),
    (
        DensityPair,
        lambda: DensityPair(Fraction(3, 2), Fraction(2), 6),
        ("left", "right", "edge_count"),
    ),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_type_is_covered():
    for name in efgames.__all__:  # loads every submodule
        getattr(efgames, name)
    with_fields = {cls for cls in _subclasses(Record) if cls._fields}
    assert with_fields == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize(
    "cls, build, fields", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)
def test_a_record_behaves_as_a_frozen_dataclass(cls, build, fields):
    rec, twin = build(), build()
    values = tuple(getattr(rec, name) for name in fields)
    assert type(rec) is cls and rec is not twin
    # equal fields, equal records, one hash: that of the field tuple
    assert rec == twin and not rec != twin
    assert hash(rec) == hash(twin) == hash(values)
    assert rec != values and rec != object()
    # frozen
    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert tuple(getattr(rec, name) for name in fields) == values
    # the dataclass repr
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(rec) == f"{cls.__name__}({shown})"
    # pickles as its type called on its fields
    copy = pickle.loads(pickle.dumps(rec))
    assert type(copy) is cls and copy == rec and hash(copy) == hash(rec)


def test_records_of_two_types_with_equal_fields_differ():
    a, b = Var(1), Var(2)
    assert And(a, b) != Or(a, b)
    assert Exists(0, a) != Forall(0, a)
    c, d = StringProperty(2, 1), StringProperty(2, 2)
    assert LeftSplit(1, 1, c, d) != RightSplit(1, 1, c, d)
    assert BitString(2, 1) != StringProperty(2, 1)
    assert len({And(a, b), Or(a, b), And(a, b)}) == 2


def test_the_repr_of_a_formula_nests():
    assert repr(Var(2)) == "Var(index=2)"
    assert repr(~Var(1) & Var(2)) == "And(left=Not(child=Var(index=1)), right=Var(index=2))"


def test_a_model_and_a_structure_keep_their_caches_to_themselves():
    model, fresh = linear_order(3), linear_order(3)
    hash(model), model.sort_key()
    st, fresh_st = Structure(model), Structure(fresh)
    hash(st)
    assert model._hash is not None and model._sort_key is not None
    assert st._hash is not None
    assert fresh._hash is None and fresh_st._hash is None
    assert model == fresh and st == fresh_st
    assert repr(model) == repr(fresh) and "_hash" not in repr(model)
    assert repr(st) == repr(fresh_st) and "_hash" not in repr(st)
    assert model.__reduce__() == (Model, (model.vocabulary, 3, model.relations))
    assert st.__reduce__() == (Structure, (model, st.assignment))
    copy, copy_st = pickle.loads(pickle.dumps(model)), pickle.loads(pickle.dumps(st))
    assert copy._hash is None and copy._sort_key is None and copy_st._hash is None
    assert copy == model and copy_st == st


def test_a_record_checks_its_fields_on_construction():
    # the former __post_init__ checks, with their messages
    with pytest.raises(efgames.InputError, match="quantified variable index must be >= 0"):
        Forall(-1, Var(1))
    with pytest.raises(efgames.InputError, match="universe size must be >= 1, got 0"):
        Model(EDGE, 0, (frozenset(),))
    with pytest.raises(efgames.InputError, match="variable x0 assigned twice"):
        Assignment(((0, 1), (0, 2)))
    with pytest.raises(efgames.InputError, match="rank must be >= 1, got 0"):
        PropPosition(0, _prop(), _prop())
    assert Assignment(((2, 0), (0, 1))).items == ((0, 1), (2, 0))
    assert Structure(linear_order(2)).assignment is efgames.EMPTY_ASSIGNMENT
    assert BoolCombClass("other").target is None
    assert LinOrderClass("other") == LinOrderClass("other", None, None)
