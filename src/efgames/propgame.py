"""The separation game on string properties.

A position is (rank, S, R).  The prover (player I) wins immediately at
any position where some literal holds on all of S and fails on all of R;
the refuter (player II) wins when the rank reaches 1 without such a
literal.  At rank w >= 2 player I splits the rank as u + v = w together
with one side of the position: a left split presents S as a union
C | D and player II chooses between (u, C, R) and (v, D, R); a right
split does the same to R.

Two search modes share one solver:

* EXACT plays the rules verbatim.  The split side may be covered by any
  ordered pair of blocks, overlapping or empty, which makes 3**k moves
  per side of k strings, so exact mode is capped to small positions.
* REDUCED searches only two-block set partitions (disjoint, nonempty).
  Separating formulas survive shrinking either side of a position, so
  dropping covers that duplicate or drop strings never changes the
  winner; the test suite checks that equivalence against exact mode
  rather than assuming it.

Reduced mode answers through a single memoized table of minimal
separating sizes, so winner queries are threshold lookups and minsize
and synthesis come from the same table.

The table is filled one root (S, R) at a time over the sub-lattice of
its masks.  The members of S and of R are numbered, so that a subset A
of S is a compact index a in [0, 2**|S|) and likewise b for R.  Each
index carries one int of literals: those true on every member of A, and
those false on every member of B, so a literal separates (A, B) exactly
when ``lit_s[a] & lit_r[b]`` is nonzero.  Cells are filled in increasing
(b, a) order into a row per b and a column per a.  A cell's best left
split is one fold over the halves of a that hold its lowest member,
summing the row at each half and at its complement in a; the best right
split folds the column the same way.  A proper subset's index is
smaller, so every summand is already filled.  The halves of every index
are cached as 2-byte arrays for sides of at most 16 strings; a larger
side builds each index's halves as it is filled, so memory stays in
proportion to the 2**(|S|+|R|) cells.

The table keeps exactly the positions a top-down search from the root
would visit: the root, every (A, B) with A a nonempty proper subset of
S, B a nonempty subset of R and no literal separating (S, B), and every
(A, B) with A a nonempty subset of S, B a nonempty proper subset of R
and no literal separating (A, R).  A literal that separates a pair
separates each of its sub-pairs, so every other cell has size 1 and is
computed but not kept.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add
from typing import Iterator, Optional, Union

from .errors import ContractError, InputError, ResourceCapError
from .props import (
    And,
    Literal,
    Not,
    Or,
    PropFormula,
    StringProperty,
    Var,
    _strings_mask,
    is_nnf,
    separates,
    size,
    truth_table,
    var_mask,
)

DEFAULT_CAP_EXACT_STRINGS = 8
DEFAULT_CAP_STRINGS = 16
DEFAULT_CAP_WIDTH = 4


class Player(enum.Enum):
    I = "I"
    II = "II"


class GameMode(enum.Enum):
    EXACT = "exact"
    REDUCED = "reduced"


@dataclass(frozen=True, slots=True)
class PropPosition:
    rank: int
    left: StringProperty
    right: StringProperty

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise InputError(f"rank must be >= 1, got {self.rank}")
        if self.left.width != self.right.width:
            raise InputError(
                f"width mismatch: {self.left.width} vs {self.right.width}"
            )

    @property
    def width(self) -> int:
        return self.left.width


@dataclass(frozen=True, slots=True)
class WinClaim:
    """Player I points at a literal separating the current position."""

    literal: Literal


@dataclass(frozen=True, slots=True)
class LeftSplit:
    """Cover S = c | d and split the rank as u + v."""

    u: int
    v: int
    c: StringProperty
    d: StringProperty


@dataclass(frozen=True, slots=True)
class RightSplit:
    """Cover R = c | d and split the rank as u + v."""

    u: int
    v: int
    c: StringProperty
    d: StringProperty


PropMove = Union[WinClaim, LeftSplit, RightSplit]


@lru_cache(maxsize=None)
def _literal_masks(width: int) -> tuple[tuple[int, int], ...]:
    """(ones, zeros) membership masks of p1..p_width: the strings where
    the variable is 1 and where it is 0."""
    full = _strings_mask(width)
    return tuple(
        (ones, full ^ ones)
        for ones in (var_mask(width, i) for i in range(1, width + 1))
    )


def _first_literal(
    literals: tuple[tuple[int, int], ...], smask: int, rmask: int
) -> Optional[Literal]:
    """The first literal true on all of smask and false on all of rmask,
    scanning ``_literal_masks`` in order with the positive literal before
    the negative one."""
    for i, (ones, zeros) in enumerate(literals, 1):
        if smask & zeros == 0 and rmask & ones == 0:
            return Literal(i, True)
        if smask & ones == 0 and rmask & zeros == 0:
            return Literal(i, False)
    return None


def literal_win(left: StringProperty, right: StringProperty) -> Optional[Literal]:
    """The first literal separating (left, right), scanning variables in
    ascending order with the positive literal before the negative one."""
    if left.width != right.width:
        raise InputError(f"width mismatch: {left.width} vs {right.width}")
    return _first_literal(_literal_masks(left.width), left.mask, right.mask)


def successors(pos: PropPosition, move: PropMove) -> tuple[PropPosition, ...]:
    """Player II's options after a legal move; raises ContractError on an
    illegal one.  A WinClaim ends the game, so it has no successors."""
    if isinstance(move, WinClaim):
        f = move.literal.formula()
        if not separates(f, pos.left, pos.right):
            raise ContractError(f"literal {move.literal} does not separate the position")
        return ()
    if not (isinstance(move, (LeftSplit, RightSplit))):
        raise ContractError(f"not a move: {move!r}")
    if pos.rank < 2:
        raise ContractError("splits require rank >= 2")
    if min(move.u, move.v) < 1 or move.u + move.v != pos.rank:
        raise ContractError(f"rank split {move.u}+{move.v} != {pos.rank}")
    side = pos.left if isinstance(move, LeftSplit) else pos.right
    if move.c.width != side.width or move.d.width != side.width:
        raise ContractError("split blocks have the wrong width")
    if move.c.mask | move.d.mask != side.mask:
        raise ContractError("split blocks do not cover the split side")
    if isinstance(move, LeftSplit):
        return (
            PropPosition(move.u, move.c, pos.right),
            PropPosition(move.v, move.d, pos.right),
        )
    return (
        PropPosition(move.u, pos.left, move.c),
        PropPosition(move.v, pos.left, move.d),
    )


def _proper_submasks(m: int) -> Iterator[int]:
    """Nonempty proper submasks of m, ascending."""
    sub = 0
    while True:
        sub = (sub - m) & m  # next submask in ascending order
        if sub == 0:
            return
        if sub != m:
            yield sub


def _submasks(m: int) -> Iterator[int]:
    """All submasks of m including 0 and m, descending."""
    x = m
    while True:
        yield x
        if x == 0:
            return
        x = (x - 1) & m


# Largest side whose halves are cached: 3**k/2 two-byte entries, 43 MB at
# k = 16.  Larger sides build each index's halves when it is filled.
_HALVES_CACHE_MAX = 16


def _halves(k: int) -> Union[list[array], _LazyHalves]:
    """Per compact index a < 2**k: the subsets of a that hold its lowest
    member, a itself excluded.  With h the highest member of a and
    c = a ^ h, the halves of a are those of c, c itself, and those of c
    with h added."""
    if k > _HALVES_CACHE_MAX:
        return _LazyHalves()
    halves = [array("H")]
    for j in range(k):
        h = 1 << j
        halves.append(array("H"))
        for c in range(1, h):
            below = halves[c]
            part = array("H", below)
            part.append(c)
            part.extend(map(h.__or__, below))
            halves.append(part)
    return halves


class _LazyHalves:
    """The halves of _halves, built per index instead of held for all."""

    def __getitem__(self, a: int) -> list[int]:
        low = a & -a
        # _submasks yields a ^ low first, whose half is a itself
        return [low | c for c in _submasks(a ^ low)][1:]


class PropGame:
    """Solver for one string width with shared memo tables."""

    def __init__(
        self,
        width: int,
        *,
        cap_exact_strings: int = DEFAULT_CAP_EXACT_STRINGS,
        cap_strings: int = DEFAULT_CAP_STRINGS,
        cap_width: int = DEFAULT_CAP_WIDTH,
    ) -> None:
        if not 1 <= width <= 16:
            raise InputError(f"width must be 1..16, got {width}")
        self.width = width
        self.cap_exact_strings = cap_exact_strings
        self.cap_strings = cap_strings
        self.cap_width = cap_width
        self._value: dict[tuple[int, int], int] = {}
        self._exact: dict[tuple[int, int, int], bool] = {}
        self._full = _strings_mask(width)
        self._literals = _literal_masks(width)

    @property
    def table_entries(self) -> int:
        """Number of entries in the size table."""
        return len(self._value)

    # -- minimal separating size over disjoint masks -----------------------

    def value(self, smask: int, rmask: int) -> int:
        """Minimal size of a formula true on all of smask, false on all of
        rmask.  Requires disjoint masks of this width; an empty side costs
        at most 2 (a contradiction or a tautology built from one variable)."""
        key = (smask, rmask)
        got = self._value.get(key)
        if got is not None:
            return got
        if smask < 0 or rmask < 0 or (smask | rmask) > self._full:
            raise InputError(
                f"masks {smask:#x}/{rmask:#x} are not sets of "
                f"width-{self.width} strings"
            )
        if smask & rmask:
            raise ContractError("value() requires disjoint sides")
        if _first_literal(self._literals, smask, rmask) is not None:
            best = 1
        elif smask == 0 or rmask == 0:
            best = 2
        else:
            return self._fill(smask, rmask)
        self._value[key] = best
        return best

    def _subsets(self, mask: int, flip: int) -> tuple[list[int], list[int]]:
        """Per compact index over the members of mask (ascending, member j
        is bit j): the subset's mask and the literals true on all of it,
        each member's literal set XORed with flip first.  Variable p_i is
        bit 2(i-1) as a positive literal and bit 2(i-1)+1 negated."""
        masks, lits = [0], [(1 << 2 * self.width) - 1]
        while mask:
            low = mask & -mask
            mask ^= low
            e = low.bit_length() - 1
            member = flip ^ sum(
                1 << 2 * i if ones >> e & 1 else 2 << 2 * i
                for i, (ones, _) in enumerate(self._literals)
            )
            masks += [low | x for x in masks]
            lits += [member & x for x in lits]
        return masks, lits

    def _fill(self, smask: int, rmask: int) -> int:
        """Fill the size table for a root with both sides nonempty and no
        separating literal, and return the root's size."""
        s_masks, s_lits = self._subsets(smask, 0)
        # literals false on every member of the R-side subset
        r_masks, r_lits = self._subsets(rmask, (1 << 2 * self.width) - 1)
        na, nb = len(s_masks), len(r_masks)
        s_halves = _halves(na.bit_length() - 1)
        r_halves = s_halves if nb == na else _halves(nb.bit_length() - 1)
        rows: list[list[int]] = []
        cols: list[list[int]] = [[] for _ in range(na)]
        for b in range(nb):
            r_lit, ds, b_xor = r_lits[b], r_halves[b], b.__xor__
            row: list[int] = []
            left = row.__getitem__
            for a, col in enumerate(cols):
                if s_lits[a] & r_lit:
                    best = 1
                elif not (a and b):
                    best = 2  # never read: split blocks are nonempty
                else:
                    cs = s_halves[a]
                    best = min(
                        map(add, map(left, cs), map(left, map(a.__xor__, cs))),
                        default=1 << 60,
                    )
                    if ds:
                        down = col.__getitem__
                        cand = min(map(add, map(down, ds), map(down, map(b_xor, ds))))
                        if cand < best:
                            best = cand
                row.append(best)
                col.append(best)
            rows.append(row)
        # keep the positions a top-down search would reach (module docstring)
        table = self._value
        fa, fb = na - 1, nb - 1
        inner_s, inner_r = s_masks[1:fa], r_masks[1:fb]
        for b in range(1, nb):
            if not s_lits[fa] & r_lits[b]:
                table.update(zip(zip(inner_s, repeat(r_masks[b])), rows[b][1:fa]))
        for a in range(1, na):
            if not s_lits[a] & r_lits[fb]:
                table.update(zip(zip(repeat(s_masks[a]), inner_r), cols[a][1:fb]))
        best = rows[fb][fa]
        table[smask, rmask] = best
        return best

    # -- public API ---------------------------------------------------------

    def _check_pair(self, left: StringProperty, right: StringProperty) -> None:
        if left.width != self.width or right.width != self.width:
            raise InputError(
                f"properties must have width {self.width}, got {left.width}/{right.width}"
            )

    def _check_reduced_caps(self, left: StringProperty, right: StringProperty) -> None:
        if self.width > self.cap_width:
            raise ResourceCapError(
                f"width {self.width} exceeds the size-table cap {self.cap_width} "
                f"(--cap-width)"
            )
        count = len(left) + len(right)
        if count > self.cap_strings:
            raise ResourceCapError(
                f"|S| + |R| = {count} exceeds the size-table cap {self.cap_strings} "
                f"(--cap-strings)"
            )

    def minsize(self, left: StringProperty, right: StringProperty) -> Optional[int]:
        """Minimal separating formula size, or None when the sides overlap
        (no formula can be true and false on a shared string)."""
        self._check_pair(left, right)
        if left.mask & right.mask:
            return None
        self._check_reduced_caps(left, right)
        return self.value(left.mask, right.mask)

    def winner(self, pos: PropPosition, mode: GameMode = GameMode.REDUCED) -> Player:
        self._check_pair(pos.left, pos.right)
        if mode is GameMode.EXACT:
            count = len(pos.left) + len(pos.right)
            if count > self.cap_exact_strings:
                raise ResourceCapError(
                    f"|S| + |R| = {count} exceeds the exact-mode cap "
                    f"{self.cap_exact_strings} (--cap-exact-strings)"
                )
            return Player.I if self._exact_wins(pos.rank, pos.left.mask, pos.right.mask) else Player.II
        if pos.left.mask & pos.right.mask:
            return Player.II
        self._check_reduced_caps(pos.left, pos.right)
        return Player.I if self.value(pos.left.mask, pos.right.mask) <= pos.rank else Player.II

    # -- exact mode ----------------------------------------------------------

    def _exact_wins(self, w: int, smask: int, rmask: int) -> bool:
        key = (w, smask, rmask)
        got = self._exact.get(key)
        if got is not None:
            return got
        result = self._exact_search(w, smask, rmask)
        self._exact[key] = result
        return result

    def _exact_search(self, w: int, smask: int, rmask: int) -> bool:
        if _first_literal(self._literals, smask, rmask) is not None:
            return True
        if w == 1:
            return False
        # ordered covers c | d = side, blocks may repeat strings or be empty
        for u in range(1, w):
            v = w - u
            for c in _submasks(smask):
                rest = smask ^ c
                if not self._exact_wins(u, c, rmask):
                    continue
                for x in _submasks(c):
                    if self._exact_wins(v, rest | x, rmask):
                        return True
            for c in _submasks(rmask):
                rest = rmask ^ c
                if not self._exact_wins(u, smask, c):
                    continue
                for x in _submasks(c):
                    if self._exact_wins(v, smask, rest | x):
                        return True
        return False

    # -- synthesis -------------------------------------------------------------

    def synthesize(
        self, left: StringProperty, right: StringProperty, budget: int
    ) -> Optional[PropFormula]:
        """A separating formula of size <= budget, or None when none exists.

        Deterministic choices: a winning literal beats any split, left
        splits beat right splits, then the smallest left-block size u and
        the smallest left-block mask win ties."""
        self._check_pair(left, right)
        if budget < 1:
            raise InputError(f"budget must be >= 1, got {budget}")
        if left.mask & right.mask:
            return None
        self._check_reduced_caps(left, right)
        if self.value(left.mask, right.mask) > budget:
            return None
        return self._build(left.mask, right.mask)

    def _build(self, smask: int, rmask: int) -> PropFormula:
        lit = _first_literal(self._literals, smask, rmask)
        if lit is not None:
            return lit.formula()
        if smask == 0:
            return And(Var(1), Not(Var(1)))
        if rmask == 0:
            return Or(Var(1), Not(Var(1)))
        target = self.value(smask, rmask)
        best: Optional[tuple[int, int]] = None  # (u, cmask)
        for c in _proper_submasks(smask):
            d = smask ^ c
            u = self.value(c, rmask)
            if u + self.value(d, rmask) == target:
                if best is None or (u, c) < best:
                    best = (u, c)
        if best is not None:
            _, c = best
            return Or(self._build(c, rmask), self._build(smask ^ c, rmask))
        for c in _proper_submasks(rmask):
            d = rmask ^ c
            u = self.value(smask, c)
            if u + self.value(smask, d) == target:
                if best is None or (u, c) < best:
                    best = (u, c)
        if best is None:
            raise ContractError("size table admits no optimal split")  # unreachable
        _, c = best
        return And(self._build(smask, c), self._build(smask, rmask ^ c))


def formula_strategy_move(f: PropFormula, pos: PropPosition) -> PropMove:
    """Player I's move at ``pos`` read off a separating formula in negation
    normal form: a literal claims the win, a disjunction splits S by which
    disjunct each string satisfies, a conjunction splits R by which
    conjunct each string falsifies."""
    if not is_nnf(f):
        raise ContractError("strategy formula must be in negation normal form")
    if not separates(f, pos.left, pos.right):
        raise ContractError("strategy formula does not separate the position")
    if size(f) > pos.rank:
        raise ContractError(
            f"strategy formula size {size(f)} exceeds position rank {pos.rank}"
        )
    width = pos.width
    if isinstance(f, Var):
        return WinClaim(Literal(f.index, True))
    if isinstance(f, Not):
        return WinClaim(Literal(f.child.index, False))
    u = size(f.left)
    v = pos.rank - u
    if isinstance(f, Or):
        c = StringProperty(width, truth_table(f.left, width) & pos.left.mask)
        d = StringProperty(width, truth_table(f.right, width) & pos.left.mask)
        return LeftSplit(u, v, c, d)
    full = _strings_mask(width)
    c = StringProperty(width, (full ^ truth_table(f.left, width)) & pos.right.mask)
    d = StringProperty(width, (full ^ truth_table(f.right, width)) & pos.right.mask)
    return RightSplit(u, v, c, d)
