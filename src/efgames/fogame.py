"""Winner decision, minimal sizes, and witness synthesis for the
separation game on classes of finite structures.

A position is (rank, A, B).  Player I wins at any position where some
atom over the class domain, or its negation, holds on every member of A
and fails on every member of B; player II wins when the rank reaches 1
first.  At rank w >= 2 player I may:

* split: divide the rank as u + v = w and one class into two blocks,
  letting player II choose a block (disjoint nonempty blocks suffice,
  because separating formulas survive shrinking either class; the test
  suite checks this against a brute-force formula search);
* supplement: spend one rank to bind a variable x_j, choosing one
  witness element per member on one side while the other side branches
  over every element of every member.

Choosing on the left and branching on the right corresponds to an
existential quantifier; the mirror image corresponds to a universal
one and is disabled in existential mode.  The bound variable is the
smallest index outside the current domain; reusing domain variables as
well changes no winner, which the test suite checks.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from typing import Iterator, Optional

from .errors import (
    DEFAULT_CAP_CHOICE_FUNCTIONS,
    DEFAULT_CAP_CLASS_SIZE,
    DEFAULT_CAP_POSITIONS,
    InputError,
    ResourceCapError,
)
from .fo import (
    EqAtom,
    Exists,
    FoAnd,
    FoFormula,
    FoMode,
    FoNot,
    FoOr,
    Forall,
    Model,
    StructureClass,
    atom_candidates,
    atom_mask,
    check_comparable,
    family_masks,
)
from .formula import Player

# the hot paths compare against this module constant: looking a member up
# on the Enum class (``FoMode.FULL``) costs several times a global read
_FULL = FoMode.FULL


@lru_cache(maxsize=1 << 12)
def _indices(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of an atom mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _members(m: int) -> Iterator[int]:
    """The ids in the bitset m, highest first."""
    while m:
        sid = m.bit_length() - 1
        yield sid
        m ^= 1 << sid


class FoGame:
    """Solver with memo tables shared across queries.

    Structures are interned to small ints by their key (model, assignment
    items), all an id's record keeps, so a class is an int bitset over ids
    (bit ``id`` for each member), and that bitset is the one value that
    stands for it.  Root members come as checked ``Structure``s, and
    interning one makes one ``atom_mask`` pass over the model and the
    values.  Their extensions x_j -> a are interned from keys alone, a
    whole family (every element a) in one step, once per (id, x_j): the
    siblings share one model, atom list and column list, looked up once,
    and ``family_masks`` evaluates the atoms that skip x_j once for the
    family and only those that mention x_j per sibling.  The atom objects
    are built once per process and shared by every solver
    (``atom_candidates``); the columns are the solver's own.  Either way
    an id gets the truth of every atom over the assignment domain, kept
    twice: as the id's int mask (bit i for the i-th entry of
    ``atom_candidates``), whose AND/OR folds over the members decide the
    atomic win, and as bit ``id`` of the atom's column, one id bitset per
    (atom list, atom index), so the members of a class on which a literal
    holds are one AND of the class with the column or its complement.

    The memo is one sub-table per (mode is FULL, rank, domain) with one
    row per B bitset, and a row maps each A bitset to the position's
    winner: equal classes give equal keys without sorting, and no key
    tuple is built per position.  A scan fetches its children's sub-table
    once.  A left (existential) scan fixes B to the star, so it fetches
    that row once and reads each child by the chooser's bitset; a right
    (universal) scan's children differ in B, so it fetches each child's
    row by the chooser's bitset and reads the fixed side in it.  Both
    orientations read and write the one sub-table, so a position that one
    stored answers the other.  Each position a query visits becomes one
    row entry once it is decided, so after an uncapped query on a fresh
    solver the row sizes sum to its ``positions_visited``, and no row is
    empty.

    Member order decides which moves are tried first, and so which
    positions the search visits and which formula it extracts.  That order
    is the structural ``sort_key`` of the members, and ``_ordered`` is its
    one reader: the splits that give both blocks rank >= 2 and the choice
    functions are enumerated over its list.  In a supplement a class plays
    one of two roles, and each role keeps its own record per (class bitset,
    variable), built only once that role's cap has passed.  ``_star`` keeps
    the bitset of the star player II branches over: every extension of
    every member.  ``_halves`` keeps the two halves of the choice functions
    player I chooses from, each half-combination carrying its bitset and
    the AND and complemented OR of its atom masks.  A supplementing move
    scans the choice functions in ``itertools.product`` order over the two
    halves.  A rank-1 scan is decided at once: ``_rank1`` keeps, beside the
    halves, the atoms true and the atoms false on some extension of every
    member, and those two masks against the other side's folds tell whether
    some choice function's child wins.  A refuted scan records all its
    children as lost in one dict merge, each still counted once like any
    position; a scan with a winner, or one whose children could pass the
    position cap, decides its children one by one from the halves' folds
    against the other side's folds, without a call.

    Three more records are built once and read on every later visit.
    ``_folded`` keeps ``_fold`` of each class bitset: a bitset names a
    fixed set of ids, and an id's atom mask is fixed when it is interned.
    ``_classes`` keeps the bitset and sorted domain of each class a query
    enters, keyed by its members and domain, the only inputs of the
    record: equal classes share one record, and the ids that members
    intern to never change.  ``_supps`` keeps, per domain, the (variable,
    domain after binding it) pairs of ``_supp_vars``, which reads nothing
    but the domain.  A position reads ``_folded``, ``_supps``, ``_star``
    and ``_halves`` straight from their dicts and calls a builder only on
    a miss.  The checks of a query (comparable classes, the class-size
    cap, the reset of ``positions_visited``) still run on every call, and
    a star read from its dict is still held to the class-size cap, since
    the caps may change between queries.
    """

    def __init__(
        self,
        *,
        cap_positions: int = DEFAULT_CAP_POSITIONS,
        cap_choice_functions: int = DEFAULT_CAP_CHOICE_FUNCTIONS,
        cap_class_size: int = DEFAULT_CAP_CLASS_SIZE,
    ) -> None:
        self.cap_positions = cap_positions
        self.cap_choice_functions = cap_choice_functions
        self.cap_class_size = cap_class_size
        self.positions_visited = 0
        self._ids: dict[tuple[Model, tuple], int] = {}
        self._by_id: list[tuple[Model, tuple[tuple[int, int], ...]]] = []
        self._keys: list[tuple] = []
        self._masks: list[int] = []
        self._atoms_of: list[list[FoFormula]] = []
        self._cols_of: list[list[int]] = []
        self._atom_lists: dict[tuple, tuple[list[FoFormula], list[int]]] = {}
        self._ext: dict[tuple[int, int], tuple[int, ...]] = {}
        self._memo: dict[tuple, dict[int, dict[int, bool]]] = {}
        self._star: dict[tuple[int, int], int] = {}
        self._halves: dict[tuple[int, int], tuple[list, list]] = {}
        self._rank1: dict[tuple[int, int], list] = {}
        self._folded: dict[int, tuple[int, int]] = {}
        self._classes: dict[tuple, tuple[int, tuple[int, ...]]] = {}
        self._supps: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}

    # -- interning ----------------------------------------------------------

    def _intern(self, model: Model, items: tuple[tuple[int, int], ...]) -> int:
        """The id of the structure (model, assignment items), new or not."""
        key = (model, items)
        sid = self._ids.setdefault(key, len(self._by_id))
        if sid == len(self._by_id):  # a key not seen before
            variables, values = zip(*items) if items else ((), ())
            atoms, cols = self._atom_list(model, variables)
            self._add(key, model.sort_key(), atoms, cols, atom_mask(model, values))
        return sid

    def _add(
        self,
        key: tuple[Model, tuple],
        sort_key: tuple,
        atoms: list[FoFormula],
        cols: list[int],
        mask: int,
    ) -> None:
        """Record the new id ``len(_by_id)``: its key, its sort key, its
        atom list and columns, and its atom mask, set in the columns."""
        sid = len(self._by_id)
        self._by_id.append(key)
        self._keys.append((sort_key, key[1]))
        bit = 1 << sid
        for i in _indices(mask):
            cols[i] |= bit
        self._atoms_of.append(atoms)
        self._cols_of.append(cols)
        self._masks.append(mask)

    def _atom_list(
        self, model: Model, variables: tuple[int, ...]
    ) -> tuple[list[FoFormula], list[int]]:
        """The atom list over the model's vocabulary and the variables, and
        its columns, one pair per solver."""
        lists = (model.vocabulary.symbols, variables)  # hashed in C
        got = self._atom_lists.get(lists)
        if got is None:
            atoms = atom_candidates(model.vocabulary, variables)
            got = self._atom_lists[lists] = (atoms, [0] * len(atoms))
        return got

    def _ordered(self, m: int) -> list[int]:
        """The ids of the class m in ``sort_key`` order, the order in which
        its splits and choice functions are tried."""
        return sorted(_members(m), key=self._keys.__getitem__)

    def _capped(self, what: str, w: int) -> ResourceCapError:
        """A cap error that also says how far the query got."""
        return ResourceCapError(
            f"{what}; stopped at a rank-{w} position, visited positions in "
            f"this query: {self.positions_visited}"
        )

    # -- win condition ------------------------------------------------------

    def _folds(self, am: int, bm: int) -> tuple[int, int, int, int]:
        """Masks of the atoms true on every member of A, on some member of
        A, on every member of B and on some member of B.  The position
        needs a member, any one, to fix its atom list."""
        atoms = (1 << len(self._atoms_of[(am or bm).bit_length() - 1])) - 1
        folded = self._folded
        every_a, some_a = folded.get(am) or self._fold(am)
        every_b, some_b = folded.get(bm) or self._fold(bm)
        return every_a & atoms, some_a, every_b & atoms, some_b

    def _fold(self, m: int) -> tuple[int, int]:
        """The AND (-1 for no member) and the OR of the atom masks of the
        members of m, walked once per bitset."""
        got = self._folded.get(m)
        if got is None:
            masks = self._masks
            every, some, rest = -1, 0, m
            while rest:
                sid = rest.bit_length() - 1
                every &= masks[sid]
                some |= masks[sid]
                rest ^= 1 << sid
            got = self._folded[m] = (every, some)
        return got

    # -- move generation ----------------------------------------------------

    def _supp_vars(self, dom: tuple[int, ...]) -> list[int]:
        """The variables a supplement may bind: the smallest one outside
        the domain."""
        fresh = 0
        while fresh in dom:
            fresh += 1
        return [fresh]

    def _supplements(self, dom: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """Per variable of ``_supp_vars(dom)``, in its order, the variable
        and the sorted domain that binding it gives; built once per
        domain."""
        got = self._supps.get(dom)
        if got is None:
            got = self._supps[dom] = [
                (j, tuple(sorted(set(dom) | {j}))) for j in self._supp_vars(dom)
            ]
        return got

    def _extensions(self, sid: int, j: int) -> tuple[int, ...]:
        """Ids of the structure extended by x_j -> a, for every element a:
        its items without x_j, with (j, a) in variable order.  a is in the
        universe and x_j goes first, so no ``Structure`` need check that.
        The family is interned in one step: the siblings share the model,
        the variables, the atom list and its columns, and ``family_masks``
        evaluates the atoms that skip x_j once for them all; ids are still
        handed out in the order a = 0, 1, ..."""
        key = (sid, j)
        got = self._ext.get(key)
        if got is None:
            model, items = self._by_id[sid]
            variables, values = zip(*items) if items else ((), ())
            lo = bisect_left(variables, j)  # x_j's position
            hi = lo + (variables[lo : lo + 1] == (j,))  # past a bound x_j
            head, tail = items[:lo], items[hi:]
            atoms, cols = self._atom_list(model, variables[:lo] + (j,) + variables[hi:])
            sort_key, ids, new = model.sort_key(), self._ids, len(self._by_id)
            mask_of = None
            exts = []
            for a in range(model.universe_size):
                ext = (model, head + ((j, a),) + tail)
                sid = ids.setdefault(ext, new)
                if sid == new:  # a key not seen before
                    if mask_of is None:
                        mask_of = family_masks(model, values[:lo], values[hi:])
                    self._add(ext, sort_key, atoms, cols, mask_of(a))
                    new += 1
                exts.append(sid)
            got = self._ext[key] = tuple(exts)
        return got

    def _branching(self, w: int, m: int, j: int) -> int:
        """The star of a side that player II branches over, within the cap:
        the bitset of every extension x_j -> a of every member.  At an
        unbound x_j distinct members have distinct extensions, so a star not
        yet built is refused before it is built when the members' universes
        hold more elements than the cap."""
        star = self._star.get((m, j))
        if star is None:
            size = 0
            if m and all(v != j for v, _ in self._by_id[m.bit_length() - 1][1]):
                size = sum(self._by_id[sid][0].universe_size for sid in _members(m))
            if size <= self.cap_class_size:
                star = 0
                for sid in _members(m):
                    for ext in self._extensions(sid, j):
                        star |= 1 << ext
                self._star[m, j] = star
        if star is not None:
            size = star.bit_count()
        if size > self.cap_class_size:
            raise self._capped(
                f"a branching extension reaches {size} members, over the "
                f"cap {self.cap_class_size} (--cap-class-size)",
                w,
            )
        return star

    def _chooser(self, w: int, m: int, j: int) -> tuple[list, list]:
        """The halves of a side that player I chooses on: the choice
        functions x_j -> a of the first and of the second half of the
        members in ``_ordered`` order, each in ``itertools.product`` order
        and combined into its class's bitset with the AND and the
        complemented OR of its atom masks.  Beside them ``_rank1`` keeps
        the ORs of those two folds over all choice functions, each the
        head's OR joined with the tail's: the atoms true, and the atoms
        false, on some extension of every member.  The cap on choice
        functions is checked first, so a refused class interns no
        extension and leaves no halves behind."""
        got = self._halves.get((m, j))
        if got is None:
            ids = self._ordered(m)
            total = math.prod(self._by_id[sid][0].universe_size for sid in ids)
            if total > self.cap_choice_functions:
                raise self._capped(
                    f"{total} choice functions exceed the cap "
                    f"{self.cap_choice_functions} (--cap-choice-functions)",
                    w,
                )
            masks = self._masks
            halves = []
            for part in (ids[: len(ids) // 2], ids[len(ids) // 2 :]):
                combos = [(0, -1, -1)]
                for sid in part:
                    ext = self._extensions(sid, j)
                    combos = [
                        (cb | 1 << e, every & masks[e], none & ~masks[e])
                        for cb, every, none in combos
                        for e in ext
                    ]
                halves.append(combos)
            reach = []
            for combos in halves:
                some_every = some_none = 0
                for _, every, none in combos:
                    some_every |= every
                    some_none |= none
                reach.append((some_every, some_none))
            (h_every, h_none), (t_every, t_none) = reach
            self._rank1[m, j] = [h_every & t_every, h_none & t_none, None]
            got = self._halves[m, j] = tuple(halves)
        return got

    def _table(self, key: tuple[bool, int, tuple[int, ...]]) -> dict:
        """The memo sub-table of one (mode is FULL, rank, domain): one row
        per B bitset, each row keyed by the A bitset."""
        table = self._memo.get(key)
        if table is None:
            table = self._memo[key] = {}
        return table

    def _choice_scan(
        self,
        mode: FoMode,
        w: int,
        left: bool,
        m: int,
        fm: int,
        dom2: tuple[int, ...],
        j: int,
    ) -> Optional[int]:
        """The bitset of the first choice function x_j -> a on the chooser
        side m (the left side when ``left``) whose class wins at rank w - 1
        against the fixed side fm; None when none does.  Choice functions
        come in ``itertools.product`` order over the members in
        ``_ordered`` order, each one a head half-combination joined with a
        tail one.

        At rank w - 1 = 1 a child wins iff some atom is true on all of it
        and on none of fm, or the reverse, and the chooser's children are
        every choice function: so some child wins iff some atom is true on
        some extension of every member and on no member of fm, or false on
        some extension of every member and true on every member of fm, one
        test of the ``_rank1`` masks against fm's folds.  A refuted scan
        within the position cap records every child as lost at once, from
        the record's dict of choice bitsets in scan order, built on its
        first refuted scan: a left scan merges it into the star's row, and
        the row's growth is the count of new positions; a right scan walks
        it into the children's rows.  Any other scan walks its children
        one by one and stops at the first winner or at the cap, so a cap
        stops at the same position and leaves the same memo either way."""
        head, tail = self._halves.get((m, j)) or self._chooser(w, m, j)
        v = w - 1
        key = (mode is _FULL, v, dom2)
        table = self._memo.get(key) or self._table(key)
        get = table.get
        # a left scan's children share the B row of the fixed side (the
        # star), keyed by the chooser's bitset; a right scan's child has the chooser's bitset
        # as its B row, in which the fixed side is the key
        row = None
        if left:
            row = get(fm)
            if row is None:
                row = table[fm] = {}
        if v >= 2:
            for hb, _, _ in head:
                for tb, _, _ in tail:
                    cb = hb | tb
                    if left:
                        got = row.get(cb)
                        if got is None:
                            got = self._wins(mode, v, cb, fm, dom2)
                    else:
                        row = get(cb)
                        got = None if row is None else row.get(fm)
                        if got is None:
                            got = self._wins(mode, v, fm, cb, dom2)
                    if got:
                        return cb
            return None
        # a rank-1 child never recurses: it wins iff some atom is true on all
        # of it and on none of the fixed side, or the reverse.  x_j = x_j is
        # an atom true on every member, so every fold holds its bit: a side
        # with no members (AND fold -1) wins, as in _winning_move, and the
        # folds need no mask to the atom list; the tests below hold bit by
        # bit, the sign bits of -1 folds included.
        every_f, some_f = self._fold(fm)
        none_f = ~some_f
        visited, cap = self.positions_visited, self.cap_positions
        rank1 = self._rank1[m, j]
        some_every, some_none, lost = rank1
        if (
            not (some_every & none_f | some_none & every_f)
            and visited + len(head) * len(tail) <= cap
        ):
            if lost is None:
                lost = rank1[2] = dict.fromkeys(
                    [hb | tb for hb, _, _ in head for tb, _, _ in tail], False
                )
            if left:
                before = len(row)
                row.update(lost)
                self.positions_visited = visited + len(row) - before
                return None
            for cb in lost:
                row = get(cb)
                if row is None:
                    row = table[cb] = {}
                if fm not in row:
                    row[fm] = False
                    visited += 1
            self.positions_visited = visited
            return None
        # per head half-combination the fixed side's folds are joined in
        # once, and the visit count stays in a local that is written back
        # before a cap error and at the end
        for hb, h_every, h_none in head:
            h_every &= none_f
            h_none &= every_f
            for tb, t_every, t_none in tail:
                cb = hb | tb
                if left:
                    got = row.get(cb)
                else:
                    row = get(cb)
                    if row is None:
                        row = table[cb] = {}
                    got = row.get(fm)
                if got is None:
                    visited += 1
                    if visited > cap:
                        self.positions_visited = visited
                        raise self._capped(
                            f"visited positions exceed the cap {cap} "
                            f"(--cap-positions)",
                            v,
                        )
                    got = (h_every & t_every | h_none & t_none) != 0
                    row[cb if left else fm] = got
                if got:
                    self.positions_visited = visited
                    return cb
        self.positions_visited = visited
        return None

    # -- the game -----------------------------------------------------------

    def _wins(
        self, mode: FoMode, w: int, am: int, bm: int, dom: tuple[int, ...]
    ) -> bool:
        """Whether player I wins at rank w on the class bitset am against
        bm."""
        # a plain bool hashes in C; an Enum member hashes through Python
        key = (mode is _FULL, w, dom)
        table = self._memo.get(key) or self._table(key)
        row = table.get(bm)
        if row is not None:
            got = row.get(am)
            if got is not None:
                return got
        self.positions_visited += 1
        if self.positions_visited > self.cap_positions:
            raise self._capped(
                f"visited positions exceed the cap {self.cap_positions} "
                f"(--cap-positions)",
                w,
            )
        result = self._winning_move(mode, w, am, bm, dom) is not None
        if row is None:  # every move lowers the rank: the search wrote no row here
            row = table[bm] = {}
        row[am] = result
        return result

    def _winning_move(
        self, mode: FoMode, w: int, am: int, bm: int, dom: tuple[int, ...]
    ) -> Optional[tuple]:
        """The one decision of a position: ("win",) when a literal
        separates A from B, else player I's first winning move, else None.
        A move carries class bitsets."""
        if am or bm:
            every_a, some_a, every_b, some_b = folds = self._folds(am, bm)
            if every_a & ~some_b | every_b & ~some_a:
                return ("win",)
        elif dom:
            # both classes empty: any atom separates vacuously
            return ("win",)
        if w < 2:
            return None
        # Splits granting rank 1 to a block force that block to be won by a
        # single literal, so the block can be taken as the full set of
        # members that literal handles: separation survives shrinking a
        # side, hence a winning partition with a smaller literal-won block
        # stays winning after the swap.  This covers all u = 1 / v = 1
        # splits without enumerating partitions.
        if am or bm:
            move = self._literal_splits(mode, w, am, bm, dom, folds)
            if move is not None:
                return move
        # remaining splits give both blocks rank >= 2, so they only exist
        # at w >= 4; classes are still small there in practice
        for u in range(2, w - 1):
            for side, m in (("lsplit", am), ("rsplit", bm)):
                ids = self._ordered(m)
                k = len(ids)
                for sel in range((1 << (k - 1)) - 1 if k >= 2 else 0):
                    sel2 = sel << 1 | 1
                    cm = sum(1 << ids[i] for i in range(k) if sel2 >> i & 1)
                    dm = m ^ cm
                    if side == "lsplit":
                        first, second = (cm, bm), (dm, bm)
                    else:
                        first, second = (am, cm), (am, dm)
                    if self._wins(mode, u, *first, dom) and self._wins(
                        mode, w - u, *second, dom
                    ):
                        return (side, u, w - u, cm, dm)
        # supplementing moves bind a variable and cost one rank
        star, cap = self._star, self.cap_class_size
        for j, dom2 in self._supps.get(dom) or self._supplements(dom):
            bsm = star.get((bm, j))
            if bsm is None or bsm.bit_count() > cap:
                bsm = self._branching(w, bm, j)
            cm = self._choice_scan(mode, w, True, am, bsm, dom2, j)
            if cm is not None:
                return ("lsupp", j, cm, bsm, dom2)
            if mode is _FULL:
                asm = star.get((am, j))
                if asm is None or asm.bit_count() > cap:
                    asm = self._branching(w, am, j)
                cm = self._choice_scan(mode, w, False, bm, asm, dom2, j)
                if cm is not None:
                    return ("rsupp", j, asm, cm, dom2)
        return None

    def _literal_splits(
        self,
        mode: FoMode,
        w: int,
        am: int,
        bm: int,
        dom: tuple[int, ...],
        folds: tuple[int, int, int, int],
    ) -> Optional[tuple]:
        """Splits whose first block is the full set of members one literal
        wins against the other side, paired with rank w - 1 on the rest;
        ``folds`` are the position's atom folds.  The members a literal
        holds on are its atom's column, or the column's complement."""
        every_a, some_a, every_b, some_b = folds
        cols = self._cols_of[(am or bm).bit_length() - 1]
        # the atoms that hold on a proper part of one side.  As no literal
        # separates the position, the block a literal takes from one side
        # and the rest are then both nonempty, and of an atom's four splits
        # (its literals, left and right) at most one is legal.
        todo = some_a & ~every_a | some_b & ~every_b
        while todo:
            col = cols[(todo & -todo).bit_length() - 1]
            todo &= todo - 1
            for holds in (col, ~col):  # the atom, then its negation
                if not bm & holds and self._wins(mode, w - 1, am & ~holds, bm, dom):
                    return ("lsplit", 1, w - 1, am & holds, am & ~holds)
                if not am & ~holds and self._wins(mode, w - 1, am, bm & holds, dom):
                    return ("rsplit", 1, w - 1, bm & ~holds, bm & holds)
        return None

    # -- public API -----------------------------------------------------------

    def _enter(
        self, left: StructureClass, right: StructureClass, w: int
    ) -> tuple[int, int, tuple[int, ...]]:
        """The root of a rank-w query as (A bitset, B bitset, domain)."""
        check_comparable(left, right)
        # the cap bounds a single query; solved positions answer from the
        # memo without counting
        self.positions_visited = 0
        if max(len(left.members), len(right.members)) > self.cap_class_size:
            raise self._capped(
                f"class size exceeds the cap {self.cap_class_size} "
                "(--cap-class-size)",
                w,
            )
        am, dom = self._class(left)
        return am, self._class(right)[0], dom

    def _class(self, cls: StructureClass) -> tuple[int, tuple[int, ...]]:
        """The record of a class: its bitset and its sorted domain.  The
        members are interned when a class with the same members and domain
        is first entered."""
        key = (cls.members, cls.domain)
        got = self._classes.get(key)
        if got is None:
            m = 0
            for st in cls.members:
                m |= 1 << self._intern(st.model, st.assignment.items)
            got = self._classes[key] = (m, tuple(sorted(cls.domain)))
        return got

    def winner(
        self,
        rank: int,
        left: StructureClass,
        right: StructureClass,
        mode: FoMode = FoMode.FULL,
    ) -> Player:
        if rank < 1:
            raise InputError(f"rank must be >= 1, got {rank}")
        won = self._wins(mode, rank, *self._enter(left, right, rank))
        return Player.I if won else Player.II

    def minsize(
        self,
        left: StructureClass,
        right: StructureClass,
        mode: FoMode = FoMode.FULL,
        w_max: int = 8,
    ) -> Optional[int]:
        """Smallest rank player I wins at, which equals the minimal size of
        a separating formula; None when there is none of size <= w_max, and
        at once when the classes share a structure, on which no formula is
        both true and false."""
        if w_max < 1:
            raise InputError(f"w_max must be >= 1, got {w_max}")
        root = self._enter(left, right, 1)
        if root[0] & root[1]:
            return None
        for w in range(1, w_max + 1):
            if self._wins(mode, w, *root):
                return w
        return None

    def synthesize(
        self,
        left: StructureClass,
        right: StructureClass,
        rank: int,
        mode: FoMode = FoMode.FULL,
    ) -> Optional[FoFormula]:
        """A separating formula of size <= rank read off a winning
        strategy, or None when player II wins at that rank, and at once
        when the classes share a structure.  Existential mode never emits a
        universal quantifier."""
        if rank < 1:
            raise InputError(f"rank must be >= 1, got {rank}")
        root = self._enter(left, right, rank)
        if root[0] & root[1] or not self._wins(mode, rank, *root):
            return None
        return self._extract(mode, rank, *root)

    def _extract(
        self, mode: FoMode, w: int, am: int, bm: int, dom: tuple[int, ...]
    ) -> FoFormula:
        """The formula read off ``_winning_move`` from a won position; a
        ("win",) leaf names its literal from the position's atom folds."""
        move = self._winning_move(mode, w, am, bm, dom)
        assert move is not None, "extraction reached a losing position"
        kind = move[0]
        if kind == "win":
            if not am and not bm:
                return EqAtom(dom[0], dom[0])
            # the first literal in atom_candidates order, atom before negation
            every_a, some_a, every_b, some_b = self._folds(am, bm)
            positive = every_a & ~some_b
            hits = positive | every_b & ~some_a
            first = hits & -hits
            atom = self._atoms_of[(am or bm).bit_length() - 1][first.bit_length() - 1]
            return atom if positive & first else FoNot(atom)
        if kind == "lsplit":
            _, u, v, cm, dm = move
            return FoOr(
                self._extract(mode, u, cm, bm, dom),
                self._extract(mode, v, dm, bm, dom),
            )
        if kind == "rsplit":
            _, u, v, cm, dm = move
            return FoAnd(
                self._extract(mode, u, am, cm, dom),
                self._extract(mode, v, am, dm, dom),
            )
        _, j, am2, bm2, dom2 = move
        body = self._extract(mode, w - 1, am2, bm2, dom2)
        return Exists(j, body) if kind == "lsupp" else Forall(j, body)
