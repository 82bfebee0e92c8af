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

import enum
import math
from typing import Iterable, Optional

from .errors import InputError, ResourceCapError
from .fo import (
    EqAtom,
    Exists,
    FoAnd,
    FoFormula,
    FoNot,
    FoOr,
    Forall,
    Structure,
    StructureClass,
    atom_candidates,
    check_comparable,
    fo_eval,
)
from .propgame import Player

DEFAULT_CAP_POSITIONS = 1_000_000
DEFAULT_CAP_CHOICE_FUNCTIONS = 100_000
DEFAULT_CAP_CLASS_SIZE = 64


class FoMode(enum.Enum):
    FULL = "full"
    EXISTENTIAL = "existential"


# the hot paths compare against this module constant: looking a member up
# on the Enum class (``FoMode.FULL``) costs several times a global read
_FULL = FoMode.FULL


class FoGame:
    """Solver with memo tables shared across queries.

    Structures are interned to small ints, and each id keeps ``1 << id``,
    so a class is also an int bitset over ids.  Interning also evaluates
    every atom over the structure's assignment domain once and keeps the
    truth values as an int mask (bit i for the i-th entry of
    ``atom_candidates``), so the atomic win check and the literal splits
    are AND/OR folds of the members' masks.  Each structure's extensions
    x_j -> a are interned once per variable.

    The memo is one sub-table per (mode is FULL, rank, domain), keyed by
    the (A bitset, B bitset) pair: equal classes give equal keys without
    sorting, and a scan fetches its children's sub-table once.  Each
    position a query visits becomes one entry once it is decided, so after
    an uncapped query on a fresh solver the entries over all sub-tables
    number its ``positions_visited``.

    Member order still decides which moves are tried first, and so which
    positions the search visits and which formula it extracts.  A class
    that is expanded therefore travels as a tuple of ids sorted by the
    structural ``sort_key`` beside its bitset; splits and choice functions
    are enumerated in that order.  ``_star`` keeps one record per (class
    bitset, variable): the class's star (every extension of every member,
    ordered, and its bitset) and, from the first time player I chooses on
    the class, the two halves of its choice functions, each
    half-combination carrying its bitset and the AND and complemented OR
    of its atom masks.  The choice-function cap is checked when the halves
    are built.  A supplementing move scans the choice functions in
    ``itertools.product`` order over the two halves.  A rank-1 child is
    decided from those folds against the other side's folds, without a
    call (it is still looked up, counted and recorded like any position);
    a child of higher rank gets its ordered tuple only when the memo does
    not already hold it.
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
        self._ids: dict[Structure, int] = {}
        self._by_id: list[Structure] = []
        self._keys: list[tuple] = []
        self._bits: list[int] = []
        self._masks: list[int] = []
        self._atoms_of: list[list[FoFormula]] = []
        self._atom_lists: dict[tuple, list[FoFormula]] = {}
        self._ext: dict[tuple[int, int], tuple[int, ...]] = {}
        self._memo: dict[tuple, dict[tuple[int, int], bool]] = {}
        self._star: dict[tuple[int, int], tuple] = {}

    # -- interning ----------------------------------------------------------

    def _intern(self, st: Structure) -> int:
        sid = self._ids.get(st)
        if sid is None:
            sid = len(self._by_id)
            self._ids[st] = sid
            self._by_id.append(st)
            self._keys.append(st.sort_key())
            self._bits.append(1 << sid)
            key = (st.model.vocabulary, tuple(j for j, _ in st.assignment.items))
            atoms = self._atom_lists.get(key)
            if atoms is None:
                atoms = self._atom_lists[key] = atom_candidates(*key)
            self._atoms_of.append(atoms)
            self._masks.append(
                sum(1 << i for i, atom in enumerate(atoms) if fo_eval(atom, st))
            )
        return sid

    def _canon(self, members: Iterable[Structure]) -> tuple[int, ...]:
        ids = {self._intern(st) for st in members}
        return tuple(sorted(ids, key=self._keys.__getitem__))

    def _bitset(self, ids: Iterable[int]) -> int:
        return sum(map(self._bits.__getitem__, ids))

    def _capped(self, what: str, w: int) -> ResourceCapError:
        """A cap error that also says how far the query got."""
        return ResourceCapError(
            f"{what}; stopped at a rank-{w} position, visited positions in "
            f"this query: {self.positions_visited}"
        )

    # -- win condition ------------------------------------------------------

    def _folds(
        self, ak: tuple[int, ...], bk: tuple[int, ...]
    ) -> tuple[int, int, int, int]:
        """Masks of the atoms true on every member of A, on some member of
        A, on every member of B and on some member of B.  The position
        needs a member to fix its atom list."""
        masks = self._masks
        every_a = every_b = (1 << len(self._atoms_of[(ak or bk)[0]])) - 1
        some_a = some_b = 0
        for sid in ak:
            every_a &= masks[sid]
            some_a |= masks[sid]
        for sid in bk:
            every_b &= masks[sid]
            some_b |= masks[sid]
        return every_a, some_a, every_b, some_b

    # -- move generation ----------------------------------------------------

    def _supp_vars(self, dom: tuple[int, ...]) -> list[int]:
        """The variables a supplement may bind: the smallest one outside
        the domain."""
        fresh = 0
        while fresh in dom:
            fresh += 1
        return [fresh]

    def _extensions(self, sid: int, j: int) -> tuple[int, ...]:
        """Ids of the structure extended by x_j -> a, for every element a."""
        key = (sid, j)
        got = self._ext.get(key)
        if got is None:
            st = self._by_id[sid]
            got = tuple(
                self._intern(Structure(st.model, st.assignment.extend(j, a)))
                for a in range(st.model.universe_size)
            )
            self._ext[key] = got
        return got

    def _star_ids(
        self, ids: tuple[int, ...], m: int, j: int
    ) -> tuple[tuple[int, ...], int, Optional[tuple[list, list]]]:
        """The record of the class ``ids`` (bitset m) at x_j: every
        extension x_j -> a of every member, as ordered ids and a bitset,
        then the halves of its choice functions once it has chosen.
        Uncapped: the choice scan orders its classes by it."""
        key = (m, j)
        got = self._star.get(key)
        if got is None:
            out = {ext for sid in ids for ext in self._extensions(sid, j)}
            star = tuple(sorted(out, key=self._keys.__getitem__))
            got = self._star[key] = (star, self._bitset(star), None)
        return got

    def _branching(
        self, w: int, ids: tuple[int, ...], m: int, j: int
    ) -> tuple[tuple[int, ...], int]:
        """The star of a side that player II branches over, within the cap.
        At an unbound x_j distinct members have distinct extensions, so a
        star not yet built is refused before it is built when the members'
        universes hold more elements than the cap."""
        got = self._star.get((m, j))
        if got is None:
            size = 0
            if ids and j not in self._by_id[ids[0]].assignment:
                size = sum(self._by_id[sid].model.universe_size for sid in ids)
            if size <= self.cap_class_size:
                got = self._star_ids(ids, m, j)
                size = len(got[0])
        else:
            size = len(got[0])
        if size > self.cap_class_size:
            raise self._capped(
                f"a branching extension reaches {size} members, over the "
                f"cap {self.cap_class_size} (--cap-class-size)",
                w,
            )
        return got[0], got[1]

    def _chooser(
        self, w: int, ids: tuple[int, ...], m: int, j: int
    ) -> tuple[tuple[int, ...], int, tuple[list, list]]:
        """The record of a side that player I chooses on, with its halves:
        the choice functions x_j -> a of the first and of the second half
        of the members, each in ``itertools.product`` order and combined
        into its class's bitset with the AND and the complemented OR of
        its atom masks.  The cap on choice functions is checked when the
        halves are built, so a refused class leaves no halves behind."""
        got = self._star_ids(ids, m, j)
        if got[2] is None:
            total = math.prod(self._by_id[sid].model.universe_size for sid in ids)
            if total > self.cap_choice_functions:
                raise self._capped(
                    f"{total} choice functions exceed the cap "
                    f"{self.cap_choice_functions} (--cap-choice-functions)",
                    w,
                )
            bits, masks = self._bits, self._masks
            halves = []
            for part in (ids[: len(ids) // 2], ids[len(ids) // 2 :]):
                combos = [(0, -1, -1)]
                for sid in part:
                    ext = self._extensions(sid, j)
                    combos = [
                        (cb | bits[e], every & masks[e], none & ~masks[e])
                        for cb, every, none in combos
                        for e in ext
                    ]
                halves.append(combos)
            got = self._star[(m, j)] = (got[0], got[1], tuple(halves))
        return got

    def _table(self, full: bool, w: int, dom: tuple[int, ...]) -> dict:
        """The memo sub-table of one (mode is FULL, rank, domain), keyed by
        the (A bitset, B bitset) pair."""
        key = (full, w, dom)
        table = self._memo.get(key)
        if table is None:
            table = self._memo[key] = {}
        return table

    def _choice_scan(
        self,
        mode: FoMode,
        w: int,
        left: bool,
        ids: tuple[int, ...],
        m: int,
        fixed: tuple[int, ...],
        fm: int,
        dom2: tuple[int, ...],
        j: int,
    ) -> Optional[tuple[tuple[int, ...], int]]:
        """The first choice function x_j -> a on the chooser side ``ids``
        (the left side when ``left``) whose class wins at rank w - 1
        against ``fixed``, as ordered ids and a bitset; None when none
        does.  Choice functions come in ``itertools.product`` order over
        the members in order, each one a head half-combination joined with
        a tail one."""
        star, _, (head, tail) = self._chooser(w, ids, m, j)
        bits = self._bits
        v = w - 1
        table = self._table(mode is _FULL, v, dom2)
        get = table.get
        if v >= 2:
            for hb, _, _ in head:
                for tb, _, _ in tail:
                    cb = hb | tb
                    got = get((cb, fm) if left else (fm, cb))
                    if got is None:
                        ck = tuple(sid for sid in star if bits[sid] & cb)
                        if left:
                            got = self._wins(mode, v, ck, cb, fixed, fm, dom2)
                        else:
                            got = self._wins(mode, v, fixed, fm, ck, cb, dom2)
                    if got:
                        return tuple(sid for sid in star if bits[sid] & cb), cb
            return None
        # a rank-1 child never recurses: it wins iff some atom is true on all
        # of it and on none of the fixed side, or the reverse.  x_j = x_j is
        # an atom true on every member, so every fold holds its bit: a side
        # with no members (AND fold -1) wins, as in _winning_move, and the
        # folds need no mask to the atom list.  Per head row the fixed
        # side's folds are joined in once, and the visit count stays in a
        # local that is written back before a cap error and at the end.
        masks = self._masks
        every_f, some_f = -1, 0
        for sid in fixed:
            every_f &= masks[sid]
            some_f |= masks[sid]
        none_f = ~some_f
        visited, cap = self.positions_visited, self.cap_positions
        for hb, h_every, h_none in head:
            h_every &= none_f
            h_none &= every_f
            for tb, t_every, t_none in tail:
                cb = hb | tb
                key = (cb, fm) if left else (fm, cb)
                got = get(key)
                if got is None:
                    visited += 1
                    if visited > cap:
                        self.positions_visited = visited
                        raise self._capped(
                            f"visited positions exceed the cap {cap} "
                            f"(--cap-positions)",
                            v,
                        )
                    got = table[key] = (h_every & t_every | h_none & t_none) != 0
                if got:
                    self.positions_visited = visited
                    return tuple(sid for sid in star if bits[sid] & cb), cb
        self.positions_visited = visited
        return None

    # -- the game -----------------------------------------------------------

    def _wins(
        self,
        mode: FoMode,
        w: int,
        ak: tuple[int, ...],
        am: int,
        bk: tuple[int, ...],
        bm: int,
        dom: tuple[int, ...],
    ) -> bool:
        """Whether player I wins at rank w on A against B, each given as
        ordered ids and the same class's bitset."""
        # a plain bool hashes in C; an Enum member hashes through Python
        table = self._table(mode is _FULL, w, dom)
        key = (am, bm)
        got = table.get(key)
        if got is not None:
            return got
        self.positions_visited += 1
        if self.positions_visited > self.cap_positions:
            raise self._capped(
                f"visited positions exceed the cap {self.cap_positions} "
                f"(--cap-positions)",
                w,
            )
        result = self._winning_move(mode, w, ak, am, bk, bm, dom) is not None
        table[key] = result
        return result

    def _winning_move(
        self,
        mode: FoMode,
        w: int,
        ak: tuple[int, ...],
        am: int,
        bk: tuple[int, ...],
        bm: int,
        dom: tuple[int, ...],
    ) -> Optional[tuple]:
        """The one decision of a position: ("win",) when a literal
        separates A from B, else player I's first winning move, else None."""
        if ak or bk:
            every_a, some_a, every_b, some_b = folds = self._folds(ak, bk)
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
        if ak or bk:
            move = self._literal_splits(mode, w, ak, am, bk, bm, dom, folds)
            if move is not None:
                return move
        # remaining splits give both blocks rank >= 2, so they only exist
        # at w >= 4; classes are still small there in practice
        for u in range(2, w - 1):
            for side, ids, m in (("lsplit", ak, am), ("rsplit", bk, bm)):
                k = len(ids)
                for sel in range((1 << (k - 1)) - 1 if k >= 2 else 0):
                    sel2 = sel << 1 | 1
                    c = tuple(ids[i] for i in range(k) if sel2 >> i & 1)
                    d = tuple(ids[i] for i in range(k) if not sel2 >> i & 1)
                    cm = self._bitset(c)
                    dm = m ^ cm
                    if side == "lsplit":
                        first, second = (c, cm, bk, bm), (d, dm, bk, bm)
                    else:
                        first, second = (ak, am, c, cm), (ak, am, d, dm)
                    if self._wins(mode, u, *first, dom) and self._wins(
                        mode, w - u, *second, dom
                    ):
                        return (side, u, w - u, c, cm, d, dm)
        # supplementing moves bind a variable and cost one rank
        for j in self._supp_vars(dom):
            dom2 = tuple(sorted(set(dom) | {j}))
            b_star, bsm = self._branching(w, bk, bm, j)
            got = self._choice_scan(mode, w, True, ak, am, b_star, bsm, dom2, j)
            if got is not None:
                return ("lsupp", j, *got, b_star, bsm, dom2)
            if mode is _FULL:
                a_star, asm = self._branching(w, ak, am, j)
                got = self._choice_scan(mode, w, False, bk, bm, a_star, asm, dom2, j)
                if got is not None:
                    return ("rsupp", j, a_star, asm, *got, dom2)
        return None

    def _literal_splits(
        self,
        mode: FoMode,
        w: int,
        ak: tuple[int, ...],
        am: int,
        bk: tuple[int, ...],
        bm: int,
        dom: tuple[int, ...],
        folds: tuple[int, int, int, int],
    ) -> Optional[tuple]:
        """Splits whose first block is the full set of members one literal
        wins against the other side, paired with rank w - 1 on the rest;
        ``folds`` are the position's atom folds."""
        every_a, some_a, every_b, some_b = folds
        split_a = some_a & ~every_a
        split_b = some_b & ~every_b
        # per literal polarity, the atoms whose literal holds on a proper
        # part of one side and on all of A (right splits) or none of B
        # (left splits)
        lsplit_pos, rsplit_pos = split_a & ~some_b, every_a & split_b
        lsplit_neg, rsplit_neg = split_a & every_b, split_b & ~some_a
        cases = ((True, lsplit_pos, rsplit_pos), (False, lsplit_neg, rsplit_neg))
        todo = lsplit_pos | rsplit_pos | lsplit_neg | rsplit_neg
        while todo:
            bit = todo & -todo
            todo ^= bit
            for target, lsplit, rsplit in cases:  # the atom, then its negation
                if lsplit & bit:
                    d = self._where(ak, bit, not target)
                    dm = self._bitset(d)
                    if self._wins(mode, w - 1, d, dm, bk, bm, dom):
                        c = self._where(ak, bit, target)
                        return ("lsplit", 1, w - 1, c, am ^ dm, d, dm)
                if rsplit & bit:
                    d = self._where(bk, bit, target)
                    dm = self._bitset(d)
                    if self._wins(mode, w - 1, ak, am, d, dm, dom):
                        c = self._where(bk, bit, not target)
                        return ("rsplit", 1, w - 1, c, bm ^ dm, d, dm)
        return None

    def _where(self, ids: tuple[int, ...], bit: int, value: bool) -> tuple[int, ...]:
        """The members on which the atom at ``bit`` has the given value."""
        return tuple(sid for sid in ids if bool(self._masks[sid] & bit) is value)

    # -- public API -----------------------------------------------------------

    def _enter(
        self, left: StructureClass, right: StructureClass, w: int
    ) -> tuple[tuple[int, ...], int, tuple[int, ...], int, tuple[int, ...]]:
        """The root of a rank-w query as (A, A bitset, B, B bitset, domain)."""
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
        ak = self._canon(left.members)
        bk = self._canon(right.members)
        return ak, self._bitset(ak), bk, self._bitset(bk), tuple(sorted(left.domain))

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
        if root[1] & root[3]:
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
        if root[1] & root[3] or not self._wins(mode, rank, *root):
            return None
        return self._extract(mode, rank, *root)

    def _extract(
        self,
        mode: FoMode,
        w: int,
        ak: tuple[int, ...],
        am: int,
        bk: tuple[int, ...],
        bm: int,
        dom: tuple[int, ...],
    ) -> FoFormula:
        """The formula read off ``_winning_move`` from a won position; a
        ("win",) leaf names its literal from the position's atom folds."""
        move = self._winning_move(mode, w, ak, am, bk, bm, dom)
        assert move is not None, "extraction reached a losing position"
        kind = move[0]
        if kind == "win":
            if not ak and not bk:
                return EqAtom(dom[0], dom[0])
            # the first literal in atom_candidates order, atom before negation
            every_a, some_a, every_b, some_b = self._folds(ak, bk)
            positive = every_a & ~some_b
            hits = positive | every_b & ~some_a
            first = hits & -hits
            atom = self._atoms_of[(ak or bk)[0]][first.bit_length() - 1]
            return atom if positive & first else FoNot(atom)
        if kind == "lsplit":
            _, u, v, c, cm, d, dm = move
            return FoOr(
                self._extract(mode, u, c, cm, bk, bm, dom),
                self._extract(mode, v, d, dm, bk, bm, dom),
            )
        if kind == "rsplit":
            _, u, v, c, cm, d, dm = move
            return FoAnd(
                self._extract(mode, u, ak, am, c, cm, dom),
                self._extract(mode, v, ak, am, d, dm, dom),
            )
        _, j, a2, am2, b2, bm2, dom2 = move
        body = self._extract(mode, w - 1, a2, am2, b2, bm2, dom2)
        return Exists(j, body) if kind == "lsupp" else Forall(j, body)
