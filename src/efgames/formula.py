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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from .errors import InputError


class Player(enum.Enum):
    I = "I"
    II = "II"


class Formula:
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


@dataclass(frozen=True, slots=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


def _check_quantified_var(q: "Exists | Forall") -> None:
    if q.var < 0:
        raise InputError("quantified variable index must be >= 0")


@dataclass(frozen=True, slots=True)
class Exists(Formula):
    var: int
    child: Formula

    __post_init__ = _check_quantified_var


@dataclass(frozen=True, slots=True)
class Forall(Formula):
    var: int
    child: Formula

    __post_init__ = _check_quantified_var


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
