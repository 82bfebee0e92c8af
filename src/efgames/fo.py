"""Finite relational models, variable assignments, structure classes,
and first-order formulas.

A structure is a model plus a (partial) assignment of variables to
elements; a structure class is a finite set of structures sharing a
vocabulary and an assignment domain.  Separation means one formula,
with free variables inside the class domain, holding on every member of
the left class and no member of the right class.

First-order formulas are trees of the shared ``formula`` module over the
atoms ``RelAtom`` and ``EqAtom``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import ContractError, InputError
from .formula import And, Atom, Exists, Forall, Formula, Not, Or, _subformulas, to_nnf
from .formula import Formula as FoFormula, Not as FoNot, And as FoAnd, Or as FoOr
from .formula import format_formula as format_fo, size as fo_size, to_nnf as fo_nnf


class FoMode(enum.Enum):
    """The formulas a separation may use: any (FULL), or only existential
    ones (EXISTENTIAL)."""

    FULL = "full"
    EXISTENTIAL = "existential"


@dataclass(frozen=True, slots=True)
class Vocabulary:
    """Relation symbols with arities, in a fixed order."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise InputError("duplicate relation symbol")
        for name, arity in self.symbols:
            if not name:
                raise InputError("relation symbol must be a nonempty string")
            if arity < 1:
                raise InputError(f"arity of {name!r} must be >= 1, got {arity}")

    @classmethod
    def make(cls, *symbols: tuple[str, int]) -> "Vocabulary":
        return cls(tuple((str(n), int(a)) for n, a in symbols))

    def arity(self, name: str) -> int:
        for sym, arity in self.symbols:
            if sym == name:
                return arity
        raise InputError(f"unknown relation symbol {name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)


@dataclass(frozen=True, slots=True)
class Model:
    """Finite model over universe {0, ..., universe_size - 1}; relations
    are stored in vocabulary order."""

    vocabulary: Vocabulary
    universe_size: int
    relations: tuple[frozenset[tuple[int, ...]], ...]
    # kept on first use: a model keys the solvers' dicts once per structure
    _hash: Optional[int] = field(default=None, init=False, compare=False, repr=False)
    _sort_key: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise InputError(f"universe size must be >= 1, got {self.universe_size}")
        if len(self.relations) != len(self.vocabulary.symbols):
            raise InputError("one relation per vocabulary symbol required")
        for (name, arity), rel in zip(self.vocabulary.symbols, self.relations):
            for row in rel:
                if len(row) != arity:
                    raise InputError(f"tuple {row} has wrong arity for {name!r}")
                if any(not 0 <= e < self.universe_size for e in row):
                    raise InputError(f"tuple {row} of {name!r} leaves the universe")

    @classmethod
    def make(
        cls,
        vocabulary: Vocabulary,
        universe_size: int,
        relations: Mapping[str, Iterable[Sequence[int]]] = (),
    ) -> "Model":
        given = dict(relations)
        unknown = set(given) - set(vocabulary.names)
        if unknown:
            raise InputError(f"relations for unknown symbols: {sorted(unknown)}")
        rels = tuple(
            frozenset(tuple(row) for row in given.get(name, ()))
            for name in vocabulary.names
        )
        return cls(vocabulary, universe_size, rels)

    def relation(self, name: str) -> frozenset[tuple[int, ...]]:
        for (sym, _), rel in zip(self.vocabulary.symbols, self.relations):
            if sym == name:
                return rel
        raise InputError(f"unknown relation symbol {name!r}")

    def __hash__(self) -> int:
        if self._hash is None:
            key = (self.vocabulary, self.universe_size, self.relations)
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __reduce__(self) -> tuple:
        # the kept hash is not pickled: string hashes differ between
        # interpreters, so a copy hashes itself again where it is loaded
        return Model, (self.vocabulary, self.universe_size, self.relations)

    def sort_key(self) -> tuple:
        if self._sort_key is None:
            rels = tuple(tuple(sorted(rel)) for rel in self.relations)
            key = (self.universe_size, self.vocabulary.symbols, rels)
            object.__setattr__(self, "_sort_key", key)
        return self._sort_key


_EMPTY_ITEMS: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True, slots=True)
class Assignment:
    """Partial map from variable indices to elements, stored sorted."""

    items: tuple[tuple[int, int], ...] = _EMPTY_ITEMS

    def __post_init__(self) -> None:
        seen = set()
        for j, a in self.items:
            if j < 0 or a < 0:
                raise InputError(f"assignment entry x{j} -> {a} out of range")
            if j in seen:
                raise InputError(f"variable x{j} assigned twice")
            seen.add(j)
        object.__setattr__(self, "items", tuple(sorted(self.items)))

    @classmethod
    def make(cls, mapping: Union[Mapping[int, int], Iterable[tuple[int, int]]] = ()) -> "Assignment":
        pairs = mapping.items() if isinstance(mapping, Mapping) else mapping
        return cls(tuple((int(j), int(a)) for j, a in pairs))

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(j for j, _ in self.items)

    def get(self, j: int) -> Optional[int]:
        for var, a in self.items:
            if var == j:
                return a
        return None

    def __contains__(self, j: int) -> bool:
        return any(var == j for var, _ in self.items)

    def extend(self, j: int, a: int) -> "Assignment":
        """Copy with x_j set to a, overriding any previous value."""
        items = tuple((var, val) for var, val in self.items if var != j)
        return Assignment(items + ((j, a),))

    def as_dict(self) -> dict[int, int]:
        return dict(self.items)


EMPTY_ASSIGNMENT = Assignment()


@dataclass(frozen=True, slots=True)
class Structure:
    model: Model
    assignment: Assignment = EMPTY_ASSIGNMENT
    # the hash of (model, assignment), kept on first use: structures key
    # the solvers' dicts, and hashing the nested model costs microseconds
    _hash: Optional[int] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for j, a in self.assignment.items:
            if a >= self.model.universe_size:
                raise InputError(
                    f"assignment x{j} -> {a} leaves a universe of size "
                    f"{self.model.universe_size}"
                )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.model, self.assignment))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self) -> tuple:
        # as for Model: the kept hash stays in the interpreter that made it
        return Structure, (self.model, self.assignment)


@dataclass(frozen=True)
class StructureClass:
    """Finite set of structures over one vocabulary and one domain."""

    vocabulary: Vocabulary
    domain: frozenset[int]
    members: tuple[Structure, ...]

    def __post_init__(self) -> None:
        for st in self.members:
            if st.model.vocabulary != self.vocabulary:
                raise InputError("member vocabulary differs from the class vocabulary")
            if st.assignment.domain != self.domain:
                raise InputError(
                    f"member domain {sorted(st.assignment.domain)} differs from the "
                    f"class domain {sorted(self.domain)}"
                )

    @classmethod
    def of(
        cls,
        members: Iterable[Structure],
        *,
        vocabulary: Optional[Vocabulary] = None,
        domain: Optional[Iterable[int]] = None,
    ) -> "StructureClass":
        members = tuple(members)
        if vocabulary is None or domain is None:
            if not members:
                raise InputError(
                    "an empty class needs an explicit vocabulary and domain"
                )
            vocabulary = vocabulary or members[0].model.vocabulary
            dom = members[0].assignment.domain if domain is None else frozenset(domain)
        else:
            dom = frozenset(domain)
        return cls(vocabulary, dom, members)

    def __len__(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True, slots=True)
class RelAtom(Atom):
    symbol: str
    args: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.args or any(j < 0 for j in self.args):
            raise InputError(f"bad argument list {self.args} for {self.symbol!r}")

    def __str__(self) -> str:
        if len(self.args) == 2 and not self.symbol[0].isalnum():
            return f"(x{self.args[0]} {self.symbol} x{self.args[1]})"
        return f"{self.symbol}({', '.join(f'x{j}' for j in self.args)})"


@dataclass(frozen=True, slots=True)
class EqAtom(Atom):
    left: int
    right: int

    def __post_init__(self) -> None:
        if self.left < 0 or self.right < 0:
            raise InputError("equality arguments must be variable indices >= 0")

    def __str__(self) -> str:
        return f"(x{self.left} = x{self.right})"


def fo_quantifier_rank(f: Formula) -> int:
    if isinstance(f, (RelAtom, EqAtom)):
        return 0
    if isinstance(f, Not):
        return fo_quantifier_rank(f.child)
    if isinstance(f, (And, Or)):
        return max(fo_quantifier_rank(f.left), fo_quantifier_rank(f.right))
    if isinstance(f, (Exists, Forall)):
        return 1 + fo_quantifier_rank(f.child)
    raise InputError(f"not a formula node: {f!r}")


def fo_free_vars(f: Formula) -> frozenset[int]:
    if isinstance(f, RelAtom):
        return frozenset(f.args)
    if isinstance(f, EqAtom):
        return frozenset((f.left, f.right))
    if isinstance(f, Not):
        return fo_free_vars(f.child)
    if isinstance(f, (And, Or)):
        return fo_free_vars(f.left) | fo_free_vars(f.right)
    if isinstance(f, (Exists, Forall)):
        return fo_free_vars(f.child) - {f.var}
    raise InputError(f"not a formula node: {f!r}")


def is_existential(f: Formula) -> bool:
    """True iff the negation normal form of f contains no universal
    quantifier."""
    return not any(isinstance(g, Forall) for g in _subformulas(to_nnf(f)))


_MISSING = object()


def fo_eval(f: Formula, st: Structure) -> bool:
    """Truth of f in the structure; every free variable must be assigned."""
    missing = fo_free_vars(f) - st.assignment.domain
    if missing:
        raise ContractError(
            f"free variables {sorted(missing)} are not assigned"
        )
    return _eval(f, st.model, st.assignment.as_dict())


def _eval(f: Formula, model: Model, env: dict[int, int]) -> bool:
    if isinstance(f, RelAtom):
        if len(f.args) != model.vocabulary.arity(f.symbol):
            raise InputError(
                f"atom {f.symbol!r}/{len(f.args)} does not match the vocabulary"
            )
        return tuple(env[j] for j in f.args) in model.relation(f.symbol)
    if isinstance(f, EqAtom):
        return env[f.left] == env[f.right]
    if isinstance(f, Not):
        return not _eval(f.child, model, env)
    if isinstance(f, And):
        return _eval(f.left, model, env) and _eval(f.right, model, env)
    if isinstance(f, Or):
        return _eval(f.left, model, env) or _eval(f.right, model, env)
    if isinstance(f, (Exists, Forall)):
        want_any = isinstance(f, Exists)
        old = env.get(f.var, _MISSING)
        try:
            for a in range(model.universe_size):
                env[f.var] = a
                if _eval(f.child, model, env) == want_any:
                    return want_any
            return not want_any
        finally:
            if old is _MISSING:
                env.pop(f.var, None)
            else:
                env[f.var] = old
    raise InputError(f"not a formula node: {f!r}")


def check_comparable(left: StructureClass, right: StructureClass) -> None:
    """Two classes can be separated only over one vocabulary and one
    assignment domain; raises InputError otherwise."""
    if left.vocabulary != right.vocabulary:
        raise InputError("classes use different vocabularies")
    if left.domain != right.domain:
        raise InputError("classes use different assignment domains")


def fo_separates(f: Formula, left: StructureClass, right: StructureClass) -> bool:
    """True iff f holds on every member of ``left`` and no member of
    ``right``."""
    check_comparable(left, right)
    if not fo_free_vars(f) <= left.domain:
        raise InputError(
            f"free variables {sorted(fo_free_vars(f) - left.domain)} are outside "
            f"the class domain"
        )
    return all(fo_eval(f, st) for st in left.members) and not any(
        fo_eval(f, st) for st in right.members
    )


# ---------------------------------------------------------------------------
# class extension moves


def extend_star(cls: StructureClass, j: int) -> StructureClass:
    """Extend every member at x_j in every possible way."""
    if j < 0:
        raise InputError("variable index must be >= 0")
    members = tuple(
        Structure(st.model, st.assignment.extend(j, a))
        for st in cls.members
        for a in range(st.model.universe_size)
    )
    return StructureClass(cls.vocabulary, cls.domain | {j}, members)


def extend_choice(
    cls: StructureClass, choices: Union[Sequence[int], Mapping[int, int]], j: int
) -> StructureClass:
    """Extend member k at x_j to the element choices[k].  The choice
    function must cover every member with an element of its universe."""
    if j < 0:
        raise InputError("variable index must be >= 0")
    if isinstance(choices, Mapping):
        picks = [choices.get(k) for k in range(len(cls.members))]
    else:
        picks = list(choices)
        if len(picks) != len(cls.members):
            raise ContractError(
                f"choice function covers {len(picks)} members, class has "
                f"{len(cls.members)}"
            )
    members = []
    for k, st in enumerate(cls.members):
        a = picks[k] if k < len(picks) else None
        if a is None:
            raise ContractError(f"choice function is undefined on member {k}")
        if not 0 <= a < st.model.universe_size:
            raise ContractError(
                f"choice {a} for member {k} leaves a universe of size "
                f"{st.model.universe_size}"
            )
        members.append(Structure(st.model, st.assignment.extend(j, a)))
    return StructureClass(cls.vocabulary, cls.domain | {j}, tuple(members))


# ---------------------------------------------------------------------------
# atoms


def atom_candidates(vocabulary: Vocabulary, variables: Sequence[int]) -> list[Formula]:
    """All atoms over the given variables, in a fixed deterministic order:
    relation atoms in vocabulary order with argument tuples in
    ``itertools.product(variables, repeat=arity)`` order, then equalities in
    ``itertools.combinations_with_replacement(variables, 2)`` order.
    ``atom_mask`` reads the truth values under an assignment in this same order."""
    atoms: list[Formula] = []
    for name, arity in vocabulary.symbols:
        for args in itertools.product(variables, repeat=arity):
            atoms.append(RelAtom(name, args))
    # x = x is kept: its negation is the only atom falsified by everything,
    # which decides positions whose left class is empty
    for a, b in itertools.combinations_with_replacement(variables, 2):
        atoms.append(EqAtom(a, b))
    return atoms


def atom_mask(model: Model, values: Sequence[int]) -> int:
    """The truth values of ``atom_candidates(vocabulary, variables)`` in
    the model, bit i for atom i, where the variables are the sorted
    assignment domain and ``values`` their elements in that order.  One
    pass over the values: for each relation, one bit per ``itertools.product``
    tuple of its arity, set when the tuple is in the relation; then one bit
    per ``itertools.combinations_with_replacement`` pair, set when the two
    values are equal.  That is the order of ``atom_candidates``."""
    mask, bit = 0, 1
    for (_, arity), rel in zip(model.vocabulary.symbols, model.relations):
        for row in itertools.product(values, repeat=arity):
            if row in rel:
                mask |= bit
            bit <<= 1
    for a, b in itertools.combinations_with_replacement(values, 2):
        if a == b:
            mask |= bit
        bit <<= 1
    return mask


def atomic_separators(
    left: StructureClass, right: StructureClass
) -> list[tuple[Formula, bool]]:
    """Atoms separating the classes, each tagged True when the atom itself
    separates and False when its negation does."""
    check_comparable(left, right)
    found = []
    for atom in atom_candidates(left.vocabulary, sorted(left.domain)):
        on_left = [fo_eval(atom, st) for st in left.members]
        on_right = [fo_eval(atom, st) for st in right.members]
        if all(on_left) and not any(on_right):
            found.append((atom, True))
        elif not any(on_left) and all(on_right):
            found.append((atom, False))
    return found


# ---------------------------------------------------------------------------
# JSON shapes
#
# structure: {"vocabulary": [["<", 2], ...], "universe": 3,
#             "relations": {"<": [[0, 1], ...]}, "assignment": {"0": 2}}
# class: a JSON list of structures (all sharing vocabulary and domain)


def structure_to_json(st: Structure) -> dict:
    return {
        "vocabulary": [[name, arity] for name, arity in st.model.vocabulary.symbols],
        "universe": st.model.universe_size,
        "relations": {
            name: sorted([list(row) for row in st.model.relation(name)])
            for name in st.model.vocabulary.names
        },
        "assignment": {str(j): a for j, a in st.assignment.items},
    }


def structure_from_json(obj: object) -> Structure:
    if not isinstance(obj, dict):
        raise InputError("structure must be a JSON object")
    vocab_spec = obj.get("vocabulary")
    if not isinstance(vocab_spec, list):
        raise InputError("structure 'vocabulary' must be a list of [name, arity]")
    symbols = []
    for entry in vocab_spec:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not isinstance(entry[0], str)
            or not isinstance(entry[1], int)
            or isinstance(entry[1], bool)
        ):
            raise InputError(f"bad vocabulary entry {entry!r}")
        symbols.append((entry[0], entry[1]))
    vocabulary = Vocabulary(tuple(symbols))
    universe = obj.get("universe")
    if not isinstance(universe, int) or isinstance(universe, bool):
        raise InputError("structure 'universe' must be an integer")
    relations = obj.get("relations", {})
    if not isinstance(relations, dict):
        raise InputError("structure 'relations' must be an object")
    rels: dict[str, list[tuple[int, ...]]] = {}
    for name, rows in relations.items():
        if not isinstance(rows, list):
            raise InputError(f"relation {name!r} must be a list of tuples")
        parsed = []
        for row in rows:
            if not isinstance(row, list) or not all(
                isinstance(e, int) and not isinstance(e, bool) for e in row
            ):
                raise InputError(f"bad tuple {row!r} in relation {name!r}")
            parsed.append(tuple(row))
        rels[name] = parsed
    assignment_spec = obj.get("assignment", {})
    if not isinstance(assignment_spec, dict):
        raise InputError("structure 'assignment' must be an object")
    pairs = []
    for key, value in assignment_spec.items():
        if not (key.isascii() and key.isdigit()):
            raise InputError(f"assignment key {key!r} is not a variable index")
        j = int(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise InputError(f"assignment value {value!r} is not an element")
        pairs.append((j, value))
    model = Model.make(vocabulary, universe, rels)
    return Structure(model, Assignment.make(pairs))


def class_to_json(cls: StructureClass) -> list:
    return [structure_to_json(st) for st in cls.members]


def class_from_json(data: object) -> StructureClass:
    if not isinstance(data, list) or not data:
        raise InputError("a class must be a nonempty JSON list of structures")
    members = tuple(structure_from_json(obj) for obj in data)
    return StructureClass.of(members)
