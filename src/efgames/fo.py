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
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import ContractError, InputError
from .formula import And, Atom, Exists, Forall, Formula, Not, Or, Record
from .formula import _setfield, _subformulas, to_nnf
from .formula import Formula as FoFormula, Not as FoNot, And as FoAnd, Or as FoOr
from .formula import format_formula as format_fo, size as fo_size, to_nnf as fo_nnf


class FoMode(enum.Enum):
    """The formulas a separation may use: any (FULL), or only existential
    ones (EXISTENTIAL)."""

    FULL = "full"
    EXISTENTIAL = "existential"


class Vocabulary(Record):
    """Relation symbols with arities, in a fixed order."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[tuple[str, int], ...]) -> None:
        names = [name for name, _ in symbols]
        if len(set(names)) != len(names):
            raise InputError("duplicate relation symbol")
        for name, arity in symbols:
            if not name:
                raise InputError("relation symbol must be a nonempty string")
            if arity < 1:
                raise InputError(f"arity of {name!r} must be >= 1, got {arity}")
        _setfield(self, "symbols", symbols)

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


class Model(Record):
    """Finite model over universe {0, ..., universe_size - 1}; relations
    are stored in vocabulary order."""

    # _hash and _sort_key are kept on first use, since a model keys the
    # solvers' dicts once per structure; neither is pickled, since string
    # hashes differ between interpreters
    __slots__ = ("vocabulary", "universe_size", "relations", "_hash", "_sort_key")

    def __init__(
        self,
        vocabulary: Vocabulary,
        universe_size: int,
        relations: tuple[frozenset[tuple[int, ...]], ...],
    ) -> None:
        if universe_size < 1:
            raise InputError(f"universe size must be >= 1, got {universe_size}")
        if len(relations) != len(vocabulary.symbols):
            raise InputError("one relation per vocabulary symbol required")
        for (name, arity), rel in zip(vocabulary.symbols, relations):
            for row in rel:
                if len(row) != arity:
                    raise InputError(f"tuple {row} has wrong arity for {name!r}")
                if any(not 0 <= e < universe_size for e in row):
                    raise InputError(f"tuple {row} of {name!r} leaves the universe")
        _setfield(self, "vocabulary", vocabulary)
        _setfield(self, "universe_size", universe_size)
        _setfield(self, "relations", relations)
        _setfield(self, "_hash", None)
        _setfield(self, "_sort_key", None)

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

    def __eq__(self, other: object) -> bool:
        # spelled out, as a dataclass's is: interning compares each model
        # with an equal one built apart, and attrgetter calls cost more
        if other.__class__ is self.__class__:
            return (self.vocabulary, self.universe_size, self.relations) == (
                other.vocabulary, other.universe_size, other.relations
            )
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            key = (self.vocabulary, self.universe_size, self.relations)
            _setfield(self, "_hash", hash(key))
        return self._hash

    def sort_key(self) -> tuple:
        if self._sort_key is None:
            rels = tuple(tuple(sorted(rel)) for rel in self.relations)
            key = (self.universe_size, self.vocabulary.symbols, rels)
            _setfield(self, "_sort_key", key)
        return self._sort_key


_EMPTY_ITEMS: tuple[tuple[int, int], ...] = ()


class Assignment(Record):
    """Partial map from variable indices to elements, stored sorted."""

    __slots__ = ("items",)

    def __init__(self, items: tuple[tuple[int, int], ...] = _EMPTY_ITEMS) -> None:
        seen = set()
        for j, a in items:
            if j < 0 or a < 0:
                raise InputError(f"assignment entry x{j} -> {a} out of range")
            if j in seen:
                raise InputError(f"variable x{j} assigned twice")
            seen.add(j)
        _setfield(self, "items", tuple(sorted(items)))

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


class Structure(Record):
    # _hash is the hash of (model, assignment), kept on first use:
    # structures key the solvers' dicts, and hashing the nested model costs
    # microseconds
    __slots__ = ("model", "assignment", "_hash")

    def __init__(self, model: Model, assignment: Assignment = EMPTY_ASSIGNMENT) -> None:
        for j, a in assignment.items:
            if a >= model.universe_size:
                raise InputError(
                    f"assignment x{j} -> {a} leaves a universe of size "
                    f"{model.universe_size}"
                )
        _setfield(self, "model", model)
        _setfield(self, "assignment", assignment)
        _setfield(self, "_hash", None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.model, self.assignment))
            _setfield(self, "_hash", h)
        return h


class StructureClass(Record):
    """Finite set of structures over one vocabulary and one domain."""

    __slots__ = ("vocabulary", "domain", "members")

    def __init__(
        self, vocabulary: Vocabulary, domain: frozenset[int], members: tuple[Structure, ...]
    ) -> None:
        for st in members:
            if st.model.vocabulary != vocabulary:
                raise InputError("member vocabulary differs from the class vocabulary")
            if st.assignment.domain != domain:
                raise InputError(
                    f"member domain {sorted(st.assignment.domain)} differs from the "
                    f"class domain {sorted(domain)}"
                )
        _setfield(self, "vocabulary", vocabulary)
        _setfield(self, "domain", domain)
        _setfield(self, "members", members)

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


class RelAtom(Atom):
    __slots__ = ("symbol", "args")

    def __init__(self, symbol: str, args: tuple[int, ...]) -> None:
        if not args or any(j < 0 for j in args):
            raise InputError(f"bad argument list {args} for {symbol!r}")
        _setfield(self, "symbol", symbol)
        _setfield(self, "args", args)

    def __str__(self) -> str:
        if len(self.args) == 2 and not self.symbol[0].isalnum():
            return f"(x{self.args[0]} {self.symbol} x{self.args[1]})"
        return f"{self.symbol}({', '.join(f'x{j}' for j in self.args)})"


class EqAtom(Atom):
    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int) -> None:
        if left < 0 or right < 0:
            raise InputError("equality arguments must be variable indices >= 0")
        _setfield(self, "left", left)
        _setfield(self, "right", right)

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


def _atom_rows(
    symbols: tuple[tuple[str, int], ...], items: Sequence
) -> tuple[list[Iterator[tuple]], Iterator[tuple]]:
    """The one definition of atom order, over any items standing for the
    sorted variables (the variables, their values, their positions): per
    relation of ``symbols``, in order, its argument rows in
    ``itertools.product(items, repeat=arity)`` order, then the equality
    pairs in ``itertools.combinations_with_replacement(items, 2)`` order."""
    return (
        [itertools.product(items, repeat=arity) for _, arity in symbols],
        itertools.combinations_with_replacement(items, 2),
    )


@lru_cache(maxsize=None)
def _atoms(
    symbols: tuple[tuple[str, int], ...], variables: tuple[int, ...]
) -> tuple[Formula, ...]:
    """The atoms over the variables in atom order, built once per process."""
    rels, pairs = _atom_rows(symbols, variables)
    atoms: list[Formula] = [
        RelAtom(name, args) for (name, _), rows in zip(symbols, rels) for args in rows
    ]
    # x = x is kept: its negation is the only atom falsified by everything,
    # which decides positions whose left class is empty
    atoms += [EqAtom(a, b) for a, b in pairs]
    return tuple(atoms)


def atom_candidates(vocabulary: Vocabulary, variables: Sequence[int]) -> list[Formula]:
    """All atoms over the given variables in atom order (``_atom_rows``):
    relation atoms in vocabulary order, then equalities.  Each call gets a
    list of its own; the atoms in it are built once per (vocabulary
    symbols, variables) and shared by every call."""
    return list(_atoms(vocabulary.symbols, tuple(variables)))


def atom_mask(model: Model, values: Sequence[int]) -> int:
    """The truth values of ``atom_candidates(vocabulary, variables)`` in
    the model, bit i for atom i, where the variables are the sorted
    assignment domain and ``values`` their elements in that order: one
    pass over the atom rows of the values, a relation row true when it is
    in the relation and an equality pair when its two values are equal."""
    rels, pairs = _atom_rows(model.vocabulary.symbols, values)
    mask, bit = 0, 1
    for rows, rel in zip(rels, model.relations):
        for row in rows:
            if row in rel:
                mask |= bit
            bit <<= 1
    for a, b in pairs:
        if a == b:
            mask |= bit
        bit <<= 1
    return mask


def _getter(row: tuple[int, ...]) -> itemgetter:
    """Reads the values at the positions ``row`` as a tuple."""
    if len(row) == 1:
        return itemgetter(slice(row[0], row[0] + 1))
    return itemgetter(*row)


@lru_cache(maxsize=None)
def _family_table(symbols: tuple[tuple[str, int], ...], k: int, p: int) -> tuple:
    """The atoms over k sorted variables split by whether they mention the
    one at position p, following ``_atom_rows`` over the positions: (the
    bit of x_p = x_p, which always holds; per relation the (bit, getter)
    pairs of its rows without p; the (bit, q, r) equalities x_q = x_r
    without p; per relation the (bit, getter) pairs of its rows with p;
    the (bit, q) equalities x_q = x_p, q != p)."""
    rels, pairs = _atom_rows(symbols, range(k))
    fixed: list[tuple] = []
    varying: list[tuple] = []
    bit = 1
    for rows in rels:
        without, with_p = [], []
        for row in rows:
            (with_p if p in row else without).append((bit, _getter(row)))
            bit <<= 1
        fixed.append(tuple(without))
        varying.append(tuple(with_p))
    same, fixed_pairs, varying_pairs = 0, [], []
    for q, r in pairs:
        if q == r == p:
            same = bit
        elif q == p or r == p:
            varying_pairs.append((bit, q + r - p))
        else:
            fixed_pairs.append((bit, q, r))
        bit <<= 1
    return same, tuple(fixed), tuple(fixed_pairs), tuple(varying), tuple(varying_pairs)


def family_masks(
    model: Model, head: tuple[int, ...], tail: tuple[int, ...]
) -> Callable[[int], int]:
    """The atom masks of a family: the structures over the model whose
    sorted values are ``head + (a,) + tail`` for each element a, the values
    of the variables below and above the one the family binds.  An atom
    that does not mention that variable reads only head and tail, so it
    has one truth value across the family and is evaluated here, once;
    the returned function of a evaluates the atoms that do mention it.
    Each mask equals ``atom_mask(model, head + (a,) + tail)``."""
    same, fixed, fixed_pairs, varying, varying_pairs = _family_table(
        model.vocabulary.symbols, len(head) + 1 + len(tail), len(head)
    )
    rels = model.relations
    values = head + (0,) + tail  # the getters of fixed rows skip the 0
    base = same
    for rel, rows in zip(rels, fixed):
        for bit, get in rows:
            if get(values) in rel:
                base |= bit
    for bit, q, r in fixed_pairs:
        if values[q] == values[r]:
            base |= bit
    # x_q = x_p holds on the member whose element a is the value of x_q
    equal: dict[int, int] = {}
    for bit, q in varying_pairs:
        equal[values[q]] = equal.get(values[q], 0) | bit
    varying = [(rel, rows) for rel, rows in zip(rels, varying) if rows]

    def mask_of(a: int) -> int:
        values = head + (a,) + tail
        mask = base | equal.get(a, 0)
        for rel, rows in varying:
            for bit, get in rows:
                if get(values) in rel:
                    mask |= bit
        return mask

    return mask_of


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
