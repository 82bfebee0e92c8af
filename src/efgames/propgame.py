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
  ordered pair of blocks, overlapping or empty: c runs over every subset
  of the side and d over the rest of the side plus any subset of c, which
  makes 3**k moves per side of k strings, so exact mode is capped to
  small positions.  Each rank split is tried once, with u <= v: the
  cover (c, d) at ranks (u, v) offers player II the same two positions
  as (d, c) at (v, u), so this drops no move and assumes nothing about
  the game.
* REDUCED searches only two-block set partitions (disjoint, nonempty).
  Separating formulas survive shrinking either side of a position, so
  dropping covers that duplicate or drop strings never changes the
  winner; the test suite checks that equivalence against exact mode
  rather than assuming it.

Reduced mode answers through a single memoized table of minimal
separating sizes, so winner queries are threshold lookups and minsize
and synthesis come from the same table.  Exact mode memoizes winners
per root in the table's compact indices (below).

The table is filled one root (S, R) at a time over the sub-lattice of
its masks.  The members of S and of R are numbered, so that a subset A
of S is a compact index a in [0, 2**|S|) and likewise b for R.  Each
member carries one int of literals: those true on it for a member of S,
those false on it for a member of R.  A subset's literals are the AND
of its members', so a literal separates (A, B) exactly when the two
ints meet.  Only the outer side (below) is listed per subset.

Exact mode keeps one record per root (S, R) that it is asked about
(_Exact): the literals of every subset of S and of every subset of R,
so a literal test is one AND, and per rank a dict from each searched
cell a * 2**|R| + b to its winner.  Rank-1 cells and cells that a
literal wins are decided where they are met and stored nowhere, and a
root that a literal separates is answered before a record is built.
cap_exact_strings bounds |S| + |R| of a root, so a record's dicts hold
at most 2**(|S| + |R|) cells per rank, and only those the search
reaches; nothing of that size is allocated up front.

One side is the outer one, and cells are filled one line of fixed outer
index at a time, in increasing order; a proper subset's index is
smaller, so every summand is already filled.  Each finished line is
packed into one int, with one 16-bit lane per inner index, and lines are
built from packed ints (SWAR) wherever they can be.  A lane's top bit is
its guard, so the sum of two sizes must stay below 2**15; the bound
width * min(|S|, |R|) on every size (a DNF or CNF of full-length terms)
is checked against that, and a larger bound raises ResourceCapError.
Each literal has its lanes: the inner subsets on every member of which
it holds.

A line whose outer index has one member s is a hitting set: the size of
({s}, B), or of (B, {s}), is the fewest literals that each tell s apart
from some members of B and together from all of them, since a minimal
separator of one string is a conjunction of literals (a disjunction,
mirrored).  It is built by levels, the lanes that k literals reach
giving those that k + 1 reach, with no per-cell work.

On any other line, the best outer split of every cell is one lane-wise
min over the outer halves (the subsets h of the outer index o that hold
its lowest member, each adding the packed lines of h and o ^ h), and
the floor of every cell is one lane-wise max over the lines of o minus
one member: sizes only grow with the sides, so no split sums below it.
A lane is settled by those two ints when a literal separates it, when
its inner subset has at most one member (so no inner split), or when
its outer split meets its floor.  Only the open lanes are walked cell by
cell: each folds the halves of its inner index (its subsets that hold
its lowest member) as bit masks, from the largest down, each against
its complement, and stops at the first split that meets its bound (the
floor, or the line's own cells without its lowest or highest inner
member).  The outer side is the one with the lower estimated cost: a
lane-wise min per outer half, whose cost grows with the inner side's
2**k lanes, against a per-cell fold over the inner halves.  Lopsided
roots run along their small side, balanced ones along the larger.

Sizes count literal occurrences, so renaming or flipping variables
leaves every size unchanged, and a hypercube map g (a permutation of the
variables plus flips) that maps S onto S and R onto R gives value(gA,
gB) = value(A, B) throughout the root's sub-lattice.  Where the search
is cheaper than the fill (_symmetry_pays, whose bound is the worst case
of a plain enumeration: every string checked under every map) and the
outer side has two or more members (with one, every map fixes its only
line after the first), the fill finds that stabilizer by plain
enumeration, trying each variable permutation with only the flips that
send S's first member into S; no refinement is needed at the widths that
bound admits.  Each map becomes a permutation of the members of S and
one of R, and so of the subset indices of each side.  Only the least
outer index of each orbit is then walked cell by cell; every other line
o = g(r) comes later than r and is one gather of r's finished line
through g's inverse on the inner indices.  Parity 4, with 191 maps besides the identity, walks 15 of its
255 lines after the first and derives 240 (PropGame.derived_lines); the
cells are the same as without the maps.

A fill keeps its root masks, its one array of cells and the strides
that index it, and answers every cell of its sub-lattice whose two
sides are both nonempty: a position's masks are compacted against the
root's into the cell's indices, and synthesis walks those indices too.
A cell of size 1 names its literal by literal_win's rule on its masks.
A root that a literal separates, or that has an empty side, is answered
without a fill (_unfilled) and stored nowhere.

table_entries counts the cells that the fills answer, (2**|S| - 1) *
(2**|R| - 1) per fill, so a position that two fills hold counts twice.
"""

from __future__ import annotations

import enum
import sys
from array import array
from collections import defaultdict
from functools import lru_cache
from itertools import compress, permutations
from math import factorial
from operator import itemgetter
from typing import Iterator, Optional, Sequence, Union

from .errors import (
    DEFAULT_CAP_EXACT_STRINGS,
    DEFAULT_CAP_STRINGS,
    ContractError,
    InputError,
    ResourceCapError,
)
from .formula import Player, Record, _setfield
from .props import (
    And,
    Literal,
    Not,
    Or,
    PropFormula,
    StringProperty,
    Var,
    _strings_mask,
    check_same_width,
    is_nnf,
    separates,
    size,
    truth_table,
    var_mask,
)


class GameMode(enum.Enum):
    EXACT = "exact"
    REDUCED = "reduced"


class PropPosition(Record):
    __slots__ = ("rank", "left", "right")

    def __init__(self, rank: int, left: StringProperty, right: StringProperty) -> None:
        if rank < 1:
            raise InputError(f"rank must be >= 1, got {rank}")
        check_same_width(left, right)
        _setfield(self, "rank", rank)
        _setfield(self, "left", left)
        _setfield(self, "right", right)

    @property
    def width(self) -> int:
        return self.left.width


class WinClaim(Record):
    """Player I points at a literal separating the current position."""

    __slots__ = ("literal",)

    def __init__(self, literal: Literal) -> None:
        _setfield(self, "literal", literal)


class _Split(Record):
    __slots__ = ()

    def __init__(self, u: int, v: int, c: StringProperty, d: StringProperty) -> None:
        _setfield(self, "u", u)
        _setfield(self, "v", v)
        _setfield(self, "c", c)
        _setfield(self, "d", d)


class LeftSplit(_Split):
    """Cover S = c | d and split the rank as u + v."""

    __slots__ = ("u", "v", "c", "d")


class RightSplit(_Split):
    """Cover R = c | d and split the rank as u + v."""

    __slots__ = ("u", "v", "c", "d")


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


@lru_cache(maxsize=None)
def _string_lits(width: int) -> tuple[int, ...]:
    """Per string e of the width, the literals true on it: variable p_i is
    bit 2(i-1) as a positive literal and bit 2(i-1)+1 negated."""
    lits = [0]
    for i in range(width):
        # the strings below 2**i lack p_(i+1); those from 2**i on hold it
        lits = [t | 2 << 2 * i for t in lits] + [t | 1 << 2 * i for t in lits]
    return tuple(lits)


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
    check_same_width(left, right)
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


_ORDER = sys.byteorder  # lines are packed into ints and back in native order


@lru_cache(maxsize=1 << 12)
def _bits(m: int) -> tuple[int, ...]:
    """The set bits of m, each as a one-bit int, lowest first."""
    bits = []
    while m:
        bits.append(m & -m)
        m &= m - 1
    return tuple(bits)


def _stabilizer(
    width: int, smask: int, rmask: int
) -> list[tuple[list[int], list[int]]]:
    """The hypercube maps other than the identity that map the strings of
    smask onto themselves and those of rmask onto themselves, each as a
    pair of member permutations, S then R: with the members of a side
    numbered in ascending order, member j goes to member perm[j].

    A map sends string e to moved[e] ^ x, where moved sends variable i to
    variable perm[i] and x flips.  Every permutation is tried with only the
    flips that send S's first member into S, so at most width! * |S| maps
    are checked, within the worst case that _symmetry_pays admits."""
    s_members = [e for e in range(1 << width) if smask >> e & 1]
    r_members = [e for e in range(1 << width) if rmask >> e & 1]
    # each string's number among the members of its side
    number = {e: j for side in (s_members, r_members) for j, e in enumerate(side)}
    identity = list(range(1 << width))
    maps: list[tuple[list[int], list[int]]] = []
    for perm in permutations(range(width)):
        moved = _index_perm(perm)
        for x in [moved[s_members[0]] ^ t for t in s_members]:
            if (
                all(smask >> (moved[e] ^ x) & 1 for e in s_members)
                and all(rmask >> (moved[e] ^ x) & 1 for e in r_members)
                and (x or moved != identity)
            ):
                images = [m ^ x for m in moved]
                s_perm = [number[images[e]] for e in s_members]
                maps.append((s_perm, [number[images[e]] for e in r_members]))
    return maps


def _symmetry_pays(width: int, n_strings: int) -> bool:
    """Whether _fill should search a root of n_strings strings for its
    stabilizer: the search's worst case, a check of every string under
    each of the 2**width * width! hypercube maps, must not exceed the
    2**n_strings cells of the fill."""
    return (1 << width) * factorial(width) * n_strings <= 1 << n_strings


def _outer_first(n1: int, n2: int) -> bool:
    """Whether _fill_lines should run its lines along the side of n1 indices
    rather than along the side of n2.  Its estimated time, in inner-fold
    summands: per outer half a lane-wise min that costs about 3 + n_in / 70
    of them (measured on CPython 3.11), and an eighth of one per cell and
    inner half.  One per cell and inner half is an upper bound on the
    folds: the bounds settle most cells and a fold stops at the first split
    that meets its bound, so 0-8 % of those summands are read at widths 3
    and 4.  The eighth was fitted to fill times along either side of
    seeded roots of every shape there up to 16 strings."""

    def cost(n_out: int, n_in: int) -> float:
        k_out, k_in = n_out.bit_length() - 1, n_in.bit_length() - 1
        return 3**k_out * (3 + n_in / 70) + n_out * 3**k_in / 8

    return cost(n1, n2) <= cost(n2, n1)


@lru_cache(maxsize=None)
def _lane_masks(n_in: int) -> tuple[int, int, int, tuple[tuple[int, int], ...], array]:
    """The constants of a line of n_in 16-bit lanes, lane i for inner index
    i: the guard bits; the lanes set to 1; the guard bits of the lanes where
    i has two or more members; per member x, its step (the lanes set to 1
    where i lacks x, and the shift that adds x to them); and per lane, i
    minus its highest member."""

    def packed(values: Iterator[int]) -> int:
        return int.from_bytes(array("H", values).tobytes(), _ORDER)

    lanes = range(n_in)
    ones = packed(1 for i in lanes)
    multi = packed(1 << 15 if i & i - 1 else 0 for i in lanes)
    steps = tuple(
        (packed(~i >> x & 1 for i in lanes), 16 << x)
        for x in range(n_in.bit_length() - 1)
    )
    tops = array("L", [i ^ 1 << i.bit_length() - 1 if i else 0 for i in lanes])
    return ones << 15, ones, multi, steps, tops


def _fill_lines(
    out_lits: list[int],
    in_members: list[int],
    ub: int,
    maps: Sequence[tuple[list[int], list[int]]] = (),
) -> tuple[array, int]:
    """The size of every cell (o, i) of a root's sub-lattice, at
    o * 2**len(in_members) + i of one flat array, filled one line of fixed
    outer index o at a time, and the number of lines derived rather than
    walked.  out_lits[o] holds the literals of outer subset o (so
    out_lits[0] holds every literal), in_members[x] those of inner member
    x; a literal separates the cell when it is in out_lits[o] and in the
    literals of every member of i.  ub bounds every size.

    Each finished line is also packed into one int with a 16-bit lane per
    inner index; the sum of two sizes up to ub must stay below the lanes'
    guard bit 2**15, or ResourceCapError is raised.  A walked line is one
    of two kinds, and both are built lane-wise from the lanes of each
    literal: the inner subsets on all of whose members it holds.

    * When o has one member, the cell (o, i) is the fewest literals of
      out_lits[o] such that every member of i holds one of them (or 1 for
      i empty): a minimal separator of one string is a conjunction of
      literals (a disjunction, mirrored).  The line is built by levels:
      the lanes reached with k literals, closed under adding the members
      on which one literal holds and united over the literals, are those
      reached with k + 1, and a cell is the number of levels that leave it
      unreached.
    * Otherwise the best outer split of the whole line is a lane-wise min,
      over the outer halves h of o, of packed[h] + packed[o ^ h], and the
      floor is a lane-wise max over the lines of o minus one member: sizes
      only grow with the sides, so every cell lies between the two.  A lane
      is settled by these when a literal separates it (size 1), when i has
      at most one member (no inner split, so its outer split), or when its
      outer split meets its floor.  Only the open lanes are walked one by
      one, folding the halves low | y of i (low its lowest member, y a
      proper subset of the rest j) against their complements j ^ y until a
      split meets the cell's bound: the floor, or a one-member-smaller cell
      of the line.

    Each of maps is a symmetry of the root as a pair of member permutations,
    outer then inner (member j goes to member perm[j]); a line that one of
    them reaches from an earlier line is gathered from that line instead
    of walked (_derived_lines)."""
    if 2 * ub >= 1 << 15:
        raise ResourceCapError(f"sizes up to {ub} do not fit the fill's 16-bit lanes")
    n_in = 1 << len(in_members)
    lane_bytes, shift = 2 * n_in, 15
    guards, ones, multi, steps, tops = _lane_masks(n_in)
    # per literal t (a one-bit int): its path, the steps of the inner members
    # on which t holds, and its lanes, the inner subsets that lack every
    # member on which t fails.  Walking a path closes a packed set of lanes
    # under adding its members.
    every = out_lits[0]
    paths: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    held = dict.fromkeys(_bits(every), ones)
    for step, unit in zip(steps, in_members):
        for t in _bits(unit):
            paths[t].append(step)
        for t in _bits(every & ~unit):
            held[t] &= step[0]
    # the empty outer side: 1 where a literal holds on the inner subset, else 2
    lit = 0
    for t in _bits(out_lits[0]):
        lit |= held[t]
    line = 2 * ones - lit
    cells = array("H", line.to_bytes(lane_bytes, _ORDER))
    packed = [line]
    derived = _derived_lines(len(out_lits), maps)
    for o in range(1, len(out_lits)):
        if o in derived:
            r, gather = derived[o]
            done = array("H", gather(cells[r * n_in : (r + 1) * n_in]))
            cells += done
            packed.append(int.from_bytes(done.tobytes(), _ORDER))
            continue
        if not o & o - 1:
            # a hitting-set line: no literal reaches lane 0, one literal
            # reaches reach, and each level from there adds 1 to the lanes it
            # leaves unreached, so the line starts at 1 in every lane.  On
            # disjoint sides every inner member differs from o's member at a
            # position whose literal it holds, so a level adds no lane only
            # once every lane is reached.
            walk, reach = [], 1
            for t in _bits(out_lits[o]):
                if t in paths:
                    walk.append(paths[t])
                    reach |= held[t]
            line = ones
            while reach != ones:
                line += ones ^ reach
                grown = reach
                for path in walk:
                    r = reach
                    for w, s in path:
                        r |= (r & w) << s
                    grown |= r
                if grown == reach:
                    break
                reach = grown
            cells.frombytes(line.to_bytes(lane_bytes, _ORDER))
            packed.append(line)
            continue
        # lane-wise min over the outer halves, from the one that is low
        # alone: a lane's guard bit survives acc - s exactly when acc >= s
        low = o & -o
        rest = o ^ low
        acc = packed[low] + packed[rest]
        y = (rest - 1) & rest
        while y:
            s = packed[low | y] + packed[rest ^ y]
            g = ((acc | guards) - s) & guards
            acc ^= (acc ^ s) & (g - (g >> shift))
            y = (y - 1) & rest
        outer = acc
        # lane-wise max over the lines of o minus one member
        acc, y = packed[rest], rest
        while y:
            s = packed[o ^ (y & -y)]
            y &= y - 1
            g = ((acc | guards) - s) & guards ^ guards
            acc ^= (acc ^ s) & (g - (g >> shift))
        floor = acc
        lit = 0
        for t in _bits(out_lits[o]):
            lit |= held[t]
        # the outer split, 1 where a literal separates (so is the floor
        # there); a lane of two or more members is open where this exceeds
        # the floor, which keeps its guard bit through the subtraction of 1
        line = outer & ~((lit << 16) - lit) | lit
        g = ((line - floor | guards) - ones) & multi
        if not g:
            cells.frombytes(line.to_bytes(lane_bytes, _ORDER))
            packed.append(line)
            continue
        line = array("H", line.to_bytes(lane_bytes, _ORDER)).tolist()
        # the floors of the open lanes, and 0 on the lanes that compress skips
        floor = array("H", (floor & g - (g >> shift)).to_bytes(lane_bytes, _ORDER))
        for i in compress(range(n_in), floor):
            # i minus its lowest and its highest member, each nonempty
            j, k = i & i - 1, tops[i]
            best, least, below_j, below_k = line[i], floor[i], line[j], line[k]
            cand = below_j + line[i ^ j]
            if cand < best:
                best = cand
            cand = below_k + line[i ^ k]
            if cand < best:
                best = cand
            if below_j > least:
                least = below_j
            if below_k > least:
                least = below_k
            if best > least:
                # the halves low | y of i, y a nonempty proper subset of j
                # from the largest down, each against its complement j ^ y
                # (y = 0 cuts off low, tried above)
                low = i ^ j
                y = j & j - 1
                while y:
                    cand = line[low | y] + line[j ^ y]
                    if cand < best:
                        best = cand
                        if cand == least:
                            break
                    y = y - 1 & j
            line[i] = best
        done = array("H", line)
        cells += done
        packed.append(int.from_bytes(done.tobytes(), _ORDER))
    return cells, len(derived)


def _index_perm(perm: Sequence[int]) -> list[int]:
    """The permutation of compact subset indices that a member permutation
    induces: bit j of an index goes to bit perm[j]."""
    table = [0]
    for t in perm:
        bit = 1 << t
        table += [x | bit for x in table]
    return table


def _derived_lines(
    n_out: int, maps: Sequence[tuple[list[int], list[int]]]
) -> dict[int, tuple[int, itemgetter]]:
    """The outer lines that maps reach from a smaller line: o -> (r, gather)
    where some map g takes outer index r to o, and gather picks, for each
    inner index i, the cell of line r at g's inverse image of i.  Sizes do
    not change under a symmetry, so cell (o, i) = cell(g r, i) equals cell
    (r, g^-1 i).  Lines are scanned in increasing order and each line not
    yet reached is mapped by every map, so with the whole stabilizer only
    the least line of each orbit is left out."""
    derived: dict[int, tuple[int, itemgetter]] = {}
    if not maps:
        return derived
    # an outer index maps as its low and its high members, each half
    # through a table of about 2**(k / 2) entries
    half = (n_out.bit_length() - 1) // 2
    low = (1 << half) - 1
    out_tables = [(_index_perm(p[:half]), _index_perm(p[half:])) for p, _ in maps]
    gathers: dict[int, itemgetter] = {}
    for r in range(1, n_out):
        if r in derived:
            continue
        r_low, r_high = r & low, r >> half
        for m, (lows, highs) in enumerate(out_tables):
            o = lows[r_low] | highs[r_high]
            if o > r and o not in derived:
                gather = gathers.get(m)
                if gather is None:
                    in_perm = maps[m][1]
                    inverse = sorted(range(len(in_perm)), key=in_perm.__getitem__)
                    gather = gathers[m] = itemgetter(*_index_perm(inverse))
                derived[o] = r, gather
    return derived


def _compact(root: int, mask: int) -> int:
    """The compact index of mask, a submask of root: bit j for the j-th
    member of root, lowest first."""
    index = 0
    while mask:
        bit = mask & -mask
        index |= 1 << (root & bit - 1).bit_count()
        mask ^= bit
    return index


def _expand(root: int, index: int) -> int:
    """The submask of root at a compact index (_compact's inverse)."""
    mask = 0
    for bit in _bits(root):
        if index & 1:
            mask |= bit
        index >>= 1
    return mask


def _subset_lits(members: list[int], every: int) -> list[int]:
    """Per compact index over a side's members, given as their literal
    sets, the literals in all of them; the empty subset holds every."""
    lits = [every]
    for member in members:
        lits += [member & x for x in lits]
    return lits


class _Fill:
    """The sizes of one root's sub-lattice, as _fill_lines left them: cell
    (a, b), a and b compact indices over the members of the root's sides
    smask and rmask, sits at cells[a * sa + b * sb]."""

    __slots__ = ("smask", "rmask", "cells", "sa", "sb")

    def __init__(self, smask: int, rmask: int, cells: array, sa: int, sb: int) -> None:
        self.smask, self.rmask = smask, rmask
        self.cells, self.sa, self.sb = cells, sa, sb

    def size(self, a: int, b: int) -> int:
        return self.cells[a * self.sa + b * self.sb]

    def locate(self, smask: int, rmask: int) -> Optional[tuple[int, int]]:
        """The compact indices of (smask, rmask) when it is a cell with both
        sides nonempty: each side a nonempty submask of the root's."""
        if not smask or not rmask or smask & ~self.smask or rmask & ~self.rmask:
            return None
        return _compact(self.smask, smask), _compact(self.rmask, rmask)


class _Exact:
    """Exact-mode winners over the sub-lattice of one root, in _Fill's
    compact indices: s[a] holds the literals true on every member of subset
    a of S and r[b] those false on every member of subset b of R, so a
    literal wins the cell (a, b) exactly when s[a] & r[b].  memo[w] maps
    each searched cell a * 2**|R| + b at rank w >= 2 to its winner;
    rank-1 cells and literal-won cells are decided where they are met and
    stored nowhere."""

    __slots__ = ("s", "r", "shift", "memo")

    def __init__(self, s: list[int], r: list[int]) -> None:
        self.s, self.r = s, r
        self.shift = len(r).bit_length() - 1
        self.memo: list[dict[int, bool]] = []

    def root_wins(self, w: int) -> bool:
        """Whether player I wins the root at rank w >= 2; no literal
        separates the root."""
        memo = self.memo
        while len(memo) <= w:
            memo.append({})
        return self.wins(w, len(self.s) - 1, len(self.r) - 1)

    def wins(self, w: int, a: int, b: int) -> bool:
        """Whether player I wins the cell (a, b) at rank w >= 2, a cell that
        no literal separates."""
        memo = self.memo[w]
        key = a << self.shift | b
        got = memo.get(key)
        if got is None:
            got = memo[key] = self._search(w, a, b)
        return got

    def _search(self, w: int, a: int, b: int) -> bool:
        # ordered covers c | d of a side, blocks may repeat members or be
        # empty: c runs over every submask of the side, descending, and d
        # over (side ^ c) | x for every submask x of c.  (c, d) at ranks
        # (u, v) and (d, c) at (v, u) are one move, so u <= v.
        s, r = self.s, self.r
        sa, rb = s[a], r[b]
        for u in range(1, w // 2 + 1):
            v = w - u
            c = a
            while True:
                if s[c] & rb or u > 1 and self.wins(u, c, b):
                    rest, x = a ^ c, c
                    while True:
                        d = rest | x
                        if s[d] & rb or v > 1 and self.wins(v, d, b):
                            return True
                        if not x:
                            break
                        x = (x - 1) & c
                if not c:
                    break
                c = (c - 1) & a
            c = b
            while True:
                if sa & r[c] or u > 1 and self.wins(u, a, c):
                    rest, x = b ^ c, c
                    while True:
                        d = rest | x
                        if sa & r[d] or v > 1 and self.wins(v, a, d):
                            return True
                        if not x:
                            break
                        x = (x - 1) & c
                if not c:
                    break
                c = (c - 1) & b
        return False


class _SizeTable:
    """Minimal sizes by (smask, rmask): the cells of each fill with both
    sides nonempty, read from the fill's array.  ``len`` counts those cells."""

    def __init__(self) -> None:
        self.fills: list[_Fill] = []

    def locate(self, smask: int, rmask: int) -> Optional[tuple[_Fill, int, int]]:
        """The first fill that holds (smask, rmask), with its compact indices."""
        for fill in self.fills:
            at = fill.locate(smask, rmask)
            if at is not None:
                return fill, *at
        return None

    def __len__(self) -> int:
        return sum(
            ((1 << fill.smask.bit_count()) - 1) * ((1 << fill.rmask.bit_count()) - 1)
            for fill in self.fills
        )


class PropGame:
    """Solver for one string width with shared memo tables: reduced mode's
    size table, and exact mode's records, one per root asked about, whose
    dicts per rank hold at most 2**(|S| + |R|) compact cells each, with
    |S| + |R| capped by cap_exact_strings."""

    def __init__(
        self,
        width: int,
        *,
        cap_exact_strings: int = DEFAULT_CAP_EXACT_STRINGS,
        cap_strings: int = DEFAULT_CAP_STRINGS,
    ) -> None:
        if not 1 <= width <= 16:
            raise InputError(f"width must be 1..16, got {width}")
        self.width = width
        self.cap_exact_strings = cap_exact_strings
        self.cap_strings = cap_strings
        self._value = _SizeTable()
        self._exact: dict[tuple[int, int], _Exact] = {}
        # outer lines of the size table copied from a symmetric line
        # rather than walked cell by cell
        self.derived_lines = 0
        self._full = _strings_mask(width)
        self._literals = _literal_masks(width)

    @property
    def table_entries(self) -> int:
        """The cells with both sides nonempty that the fills answer,
        (2**|S| - 1) * (2**|R| - 1) per filled root (S, R): a position that
        two fills of a shared game hold is counted twice, and a root
        answered without a fill (a literal win or an empty side) adds
        nothing."""
        return len(self._value)

    # -- minimal separating size over disjoint masks -----------------------

    def value(self, smask: int, rmask: int) -> int:
        """Minimal size of a formula true on all of smask, false on all of
        rmask.  Requires disjoint masks of this width; an empty side costs
        at most 2 (a contradiction or a tautology built from one variable)."""
        found = self._value.locate(smask, rmask)
        if found is not None:
            fill, a, b = found
            return fill.size(a, b)
        if smask < 0 or rmask < 0 or (smask | rmask) > self._full:
            raise InputError(
                f"masks {smask:#x}/{rmask:#x} are not sets of "
                f"width-{self.width} strings"
            )
        if smask & rmask:
            raise ContractError("value() requires disjoint sides")
        formula = self._unfilled(smask, rmask)
        if formula is None:
            return self._fill(smask, rmask)
        return size(formula)

    def _unfilled(self, smask: int, rmask: int) -> Optional[PropFormula]:
        """The answer to a root that needs no fill: its first separating
        literal, else a contradiction for an empty S or a tautology for an
        empty R; None for a root that needs a fill."""
        lit = _first_literal(self._literals, smask, rmask)
        if lit is not None:
            return lit.formula()
        if not smask:
            return And(Var(1), Not(Var(1)))
        if not rmask:
            return Or(Var(1), Not(Var(1)))
        return None

    def _member_lits(self, mask: int, flip: int) -> list[int]:
        """The literals true on each member of mask, ascending, each set
        XORed with flip (see _string_lits)."""
        lits = _string_lits(self.width)
        return [flip ^ lits[bit.bit_length() - 1] for bit in _bits(mask)]

    def _fill(self, smask: int, rmask: int) -> int:
        """Fill the size table for a root with both sides nonempty and no
        separating literal, and return the root's size.  Its 2**(|S| + |R|)
        cells are capped here, so a root answered without a fill has no cap."""
        count = smask.bit_count() + rmask.bit_count()
        if count > self.cap_strings:
            raise ResourceCapError(
                f"|S| + |R| = {count} exceeds the size-table cap {self.cap_strings} "
                f"(--cap-strings)"
            )
        every = (1 << 2 * self.width) - 1
        s_lits = self._member_lits(smask, 0)
        # literals false on each member of R
        r_lits = self._member_lits(rmask, every)
        na, nb = 1 << len(s_lits), 1 << len(r_lits)
        # a DNF or CNF of full-length terms bounds every size in the sub-lattice
        ub = self.width * min(len(s_lits), len(r_lits))
        s_outer = _outer_first(na, nb)
        if s_outer:
            out, inner, sa, sb = s_lits, r_lits, nb, 1
        else:
            out, inner, sa, sb = r_lits, s_lits, 1, na
        # the root's symmetries as (outer, inner) member permutations; with
        # one outer member every map fixes line 1, so none derives a line
        maps = []
        if len(out) > 1 and _symmetry_pays(self.width, count):
            maps = _stabilizer(self.width, smask, rmask)
            if not s_outer:
                maps = [(r_perm, s_perm) for s_perm, r_perm in maps]
        cells, derived = _fill_lines(_subset_lits(out, every), inner, ub, maps)
        self.derived_lines += derived
        fill = _Fill(smask, rmask, cells, sa, sb)
        self._value.fills.append(fill)
        return fill.size(na - 1, nb - 1)

    # -- public API ---------------------------------------------------------

    def _check_pair(self, left: StringProperty, right: StringProperty) -> None:
        if left.width != self.width or right.width != self.width:
            raise InputError(
                f"properties must have width {self.width}, got {left.width}/{right.width}"
            )

    def minsize(self, left: StringProperty, right: StringProperty) -> Optional[int]:
        """Minimal separating formula size, or None when the sides overlap
        (no formula can be true and false on a shared string)."""
        self._check_pair(left, right)
        if left.mask & right.mask:
            return None
        return self.value(left.mask, right.mask)

    def winner(self, pos: PropPosition, mode: GameMode = GameMode.REDUCED) -> Player:
        if mode is GameMode.REDUCED:
            k = self.minsize(pos.left, pos.right)
            return Player.I if k is not None and k <= pos.rank else Player.II
        self._check_pair(pos.left, pos.right)
        count = len(pos.left) + len(pos.right)
        if count > self.cap_exact_strings:
            raise ResourceCapError(
                f"|S| + |R| = {count} exceeds the exact-mode cap "
                f"{self.cap_exact_strings} (--cap-exact-strings)"
            )
        return Player.I if self._exact_wins(pos.rank, pos.left.mask, pos.right.mask) else Player.II

    # -- exact mode ----------------------------------------------------------

    def _exact_wins(self, w: int, smask: int, rmask: int) -> bool:
        """Whether player I wins (w, smask, rmask) by the verbatim rules.  A
        root that a literal separates, or any root at rank 1, is answered
        before its record is built."""
        if _first_literal(self._literals, smask, rmask) is not None:
            return True
        if w == 1:
            return False
        root = self._exact.get((smask, rmask))
        if root is None:
            every = (1 << 2 * self.width) - 1
            root = self._exact[smask, rmask] = _Exact(
                _subset_lits(self._member_lits(smask, 0), every),
                # literals false on each member of R
                _subset_lits(self._member_lits(rmask, every), every),
            )
        return root.root_wins(w)

    # -- synthesis -------------------------------------------------------------

    def synthesize(
        self, left: StringProperty, right: StringProperty, budget: int
    ) -> Optional[PropFormula]:
        """A separating formula of size <= budget, or None when none exists.

        Deterministic choices: a winning literal beats any split, left
        splits beat right splits, then the smallest left-block size u and
        the smallest left-block mask win ties."""
        if budget < 1:
            raise InputError(f"budget must be >= 1, got {budget}")
        k = self.minsize(left, right)
        if k is None or k > budget:
            return None
        found = self._value.locate(left.mask, right.mask)
        if found is not None:
            return _build(self._literals, *found)
        return self._unfilled(left.mask, right.mask)


def _build(
    literals: tuple[tuple[int, int], ...], fill: _Fill, a: int, b: int
) -> PropFormula:
    """The formula synthesize gives for cell (a, b) of fill, both sides
    nonempty: a separating literal, named as literal_win names it, else
    the optimal split with the least (u, c), left splits first.  Compact
    order is mask order, so the least compact block c is the least block
    mask too."""
    cells, sa, sb = fill.cells, fill.sa, fill.sb
    target = cells[a * sa + b * sb]
    if target == 1:
        # a cell with both sides nonempty is 1 exactly when a literal separates it
        lit = _first_literal(literals, _expand(fill.smask, a), _expand(fill.rmask, b))
        if lit is not None:
            return lit.formula()
    # the nonempty proper blocks c, ascending, so the first optimal split of
    # each u has its least c, and one with u = 1 is the least (u, c)
    best: Optional[tuple[int, int]] = None  # (u, c)
    at = b * sb
    c = (-a) & a
    while c != a:
        u = cells[c * sa + at]
        if u + cells[(a ^ c) * sa + at] == target and (best is None or u < best[0]):
            best = (u, c)
            if u == 1:
                break
        c = (c - a) & a
    if best is not None:
        _, c = best
        return Or(_build(literals, fill, c, b), _build(literals, fill, a ^ c, b))
    at = a * sa
    c = (-b) & b
    while c != b:
        u = cells[at + c * sb]
        if u + cells[at + (b ^ c) * sb] == target and (best is None or u < best[0]):
            best = (u, c)
            if u == 1:
                break
        c = (c - b) & b
    if best is None:
        raise ContractError("size table admits no optimal split")  # unreachable
    _, c = best
    return And(_build(literals, fill, a, c), _build(literals, fill, a, b ^ c))


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
