"""The formula tree both logics share.

A formula is built from atoms with negation, binary and/or, and the
quantifiers.  Each logic subclasses ``Atom``: the propositional atom is
``props.Var``, the first-order atoms are ``fo.RelAtom`` and ``fo.EqAtom``.
An atom renders its own text through ``__str__``.

The size measure counts atoms and quantifiers: an atom weighs 1,
negation is free, binary connectives add, and each quantifier adds 1.

Both games are played by the same two players, so ``Player`` lives here
too: player I tries to separate the two sides, player II to keep them
together.

The formula nodes and the other value types of the package are
``Record`` subclasses: plain immutable classes with slotted fields.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import Iterator

from .errors import InputError

# a record's own __init__ sets each field with this, past Record.__setattr__
_setfield = object.__setattr__


class Player(enum.Enum):
    I = "I"
    II = "II"


def _compare(names: tuple[str, ...]) -> dict:
    """``__eq__`` and ``__hash__`` over the named fields: equal only to a
    record of the same type with equal fields, and hashed as the tuple of
    the fields.  One field is read with ``getattr``, which is quicker
    than an ``attrgetter`` call there."""
    if len(names) == 1:
        (name,) = names

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return getattr(self, name) == getattr(other, name)
            return NotImplemented

        def __hash__(self):
            return hash((getattr(self, name),))

        return {"__eq__": __eq__, "__hash__": __hash__}
    get = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(get(self))

    return {"__eq__": __eq__, "__hash__": __hash__}


class Record:
    """An immutable value with slotted fields.

    A subclass lists its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``_setfield``.  A slot whose name starts with ``_``
    is a cache: it stays out of ``==``, the hash, ``repr`` and pickles.
    Two records are equal when they have one type and equal fields; a
    record hashes as the tuple of its fields, reprs as
    ``Name(field=value, ...)`` and pickles as its type called on its
    fields.  A subclass may define its own ``__eq__`` and ``__hash__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(n for n in cls.__dict__.get("__slots__", ()) if n[0] != "_")
        if names:
            cls._fields = names
            for name, method in _compare(names).items():
                if name not in cls.__dict__:
                    setattr(cls, name, method)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Formula(Record):
    """Base class for formula nodes."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "And":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


class Atom(Formula):
    """Base class for the atoms of a logic."""

    __slots__ = ()


class Not(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula) -> None:
        _setfield(self, "child", child)


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        _setfield(self, "left", left)
        _setfield(self, "right", right)


class Or(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        _setfield(self, "left", left)
        _setfield(self, "right", right)


class _Quantifier(Formula):
    __slots__ = ()

    def __init__(self, var: int, child: Formula) -> None:
        if var < 0:
            raise InputError("quantified variable index must be >= 0")
        _setfield(self, "var", var)
        _setfield(self, "child", child)


class Exists(_Quantifier):
    __slots__ = ("var", "child")


class Forall(_Quantifier):
    __slots__ = ("var", "child")


def _subformulas(f: Formula) -> Iterator[Formula]:
    """Every node of f, children first."""
    if isinstance(f, (Not, Exists, Forall)):
        yield from _subformulas(f.child)
    elif isinstance(f, (And, Or)):
        yield from _subformulas(f.left)
        yield from _subformulas(f.right)
    elif not isinstance(f, Atom):
        raise InputError(f"not a formula node: {f!r}")
    yield f


def size(f: Formula) -> int:
    """Atoms weigh 1, negation is free, connectives add, each quantifier
    adds 1."""
    if isinstance(f, Atom):
        return 1
    if isinstance(f, Not):
        return size(f.child)
    if isinstance(f, (And, Or)):
        return size(f.left) + size(f.right)
    if isinstance(f, (Exists, Forall)):
        return 1 + size(f.child)
    raise InputError(f"not a formula node: {f!r}")


def to_nnf(f: Formula) -> Formula:
    """Push negations down to the atoms; preserves size and meaning."""
    return _nnf(f, positive=True)


_DUAL = {And: Or, Or: And, Exists: Forall, Forall: Exists}


def _nnf(f: Formula, positive: bool) -> Formula:
    if isinstance(f, Atom):
        return f if positive else Not(f)
    if isinstance(f, Not):
        return _nnf(f.child, not positive)
    op = type(f) if positive else _DUAL.get(type(f))  # De Morgan
    if isinstance(f, (And, Or)):
        return op(_nnf(f.left, positive), _nnf(f.right, positive))
    if isinstance(f, (Exists, Forall)):
        return op(f.var, _nnf(f.child, positive))
    raise InputError(f"not a formula node: {f!r}")


def is_nnf(f: Formula) -> bool:
    """True iff negation stands only on atoms in f."""
    return to_nnf(f) == f


_SYMBOL = {And: "&", Or: "|", Exists: "exists", Forall: "forall"}


def format_formula(f: Formula) -> str:
    """Text form: !f, (f & g), (f | g), exists xj f, forall xj f, and each
    atom's own text."""
    if isinstance(f, Atom):
        return str(f)
    if isinstance(f, Not):
        return f"!{format_formula(f.child)}"
    if isinstance(f, (And, Or)):
        op = _SYMBOL[type(f)]
        return f"({format_formula(f.left)} {op} {format_formula(f.right)})"
    if isinstance(f, (Exists, Forall)):
        return f"{_SYMBOL[type(f)]} x{f.var} {format_formula(f.child)}"
    raise InputError(f"not a formula node: {f!r}")
