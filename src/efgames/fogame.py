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
one and is disabled in existential mode.  By default the bound variable
is the smallest index outside the current domain; reusing domain
variables is equivalent and can be enabled for cross-checks.
"""

from __future__ import annotations

import enum
import itertools
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

    Structures are interned to small ints; a class is a tuple of ids
    sorted by a deterministic structural key, so equal classes always
    produce equal memo keys.  Interning also evaluates every atom over the
    structure's assignment domain once and keeps the truth values as an
    int mask (bit i for the i-th entry of ``atom_candidates``), so the
    atomic win check and the literal splits are bit operations over the
    members' masks and need no memo of their own.  Each structure's
    extensions x_j -> a are interned once per variable, so choice
    functions pick among ids.
    """

    def __init__(
        self,
        *,
        cap_positions: int = DEFAULT_CAP_POSITIONS,
        cap_choice_functions: int = DEFAULT_CAP_CHOICE_FUNCTIONS,
        cap_class_size: int = DEFAULT_CAP_CLASS_SIZE,
        fresh_only: bool = True,
    ) -> None:
        self.cap_positions = cap_positions
        self.cap_choice_functions = cap_choice_functions
        self.cap_class_size = cap_class_size
        self.fresh_only = fresh_only
        self.positions_visited = 0
        self._ids: dict[Structure, int] = {}
        self._by_id: list[Structure] = []
        self._keys: list[tuple] = []
        self._masks: list[int] = []
        self._atoms_of: list[list[FoFormula]] = []
        self._atom_lists: dict[tuple, list[FoFormula]] = {}
        self._ext: dict[tuple[int, int], tuple[int, ...]] = {}
        self._memo: dict[tuple, bool] = {}
        self._star: dict[tuple, tuple[int, ...]] = {}

    # -- interning ----------------------------------------------------------

    def _intern(self, st: Structure) -> int:
        sid = self._ids.get(st)
        if sid is None:
            sid = len(self._by_id)
            self._ids[st] = sid
            self._by_id.append(st)
            self._keys.append(st.sort_key())
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

    def _first_atomic(
        self, ak: tuple[int, ...], bk: tuple[int, ...], dom: tuple[int, ...]
    ) -> Optional[tuple[FoFormula, bool]]:
        """The first atom in ``atom_candidates`` order that separates, tagged
        True when the atom itself does and False when its negation does."""
        if not ak and not bk:
            # both classes empty: any atom separates vacuously, so player I
            # wins exactly when the domain affords one
            return (EqAtom(dom[0], dom[0]), True) if dom else None
        every_a, some_a, every_b, some_b = self._folds(ak, bk)
        positive = every_a & ~some_b
        hits = positive | (every_b & ~some_a)
        if not hits:
            return None
        first = hits & -hits
        atom = self._atoms_of[(ak or bk)[0]][first.bit_length() - 1]
        return atom, bool(positive & first)

    # -- move generation ----------------------------------------------------

    def _supp_vars(self, dom: tuple[int, ...]) -> list[int]:
        fresh = 0
        used = set(dom)
        while fresh in used:
            fresh += 1
        if self.fresh_only:
            return [fresh]
        return [fresh] + list(dom)

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

    def _star_ids(self, ids: tuple[int, ...], j: int) -> tuple[int, ...]:
        key = (ids, j)
        got = self._star.get(key)
        if got is not None:
            return got
        out = {ext for sid in ids for ext in self._extensions(sid, j)}
        if len(out) > self.cap_class_size:
            raise ResourceCapError(
                f"a branching extension reaches {len(out)} members, over the cap "
                f"{self.cap_class_size} (--cap-class-size)"
            )
        result = tuple(sorted(out, key=self._keys.__getitem__))
        self._star[key] = result
        return result

    def _choice_classes(self, ids: tuple[int, ...], j: int) -> Iterable[tuple[int, ...]]:
        total = math.prod(self._by_id[sid].model.universe_size for sid in ids)
        if total > self.cap_choice_functions:
            raise ResourceCapError(
                f"{total} choice functions exceed the cap "
                f"{self.cap_choice_functions} (--cap-choice-functions)"
            )
        order = self._keys.__getitem__
        for picks in itertools.product(*(self._extensions(sid, j) for sid in ids)):
            yield tuple(sorted(set(picks), key=order))

    # -- the game -----------------------------------------------------------

    def _wins(
        self,
        mode: FoMode,
        w: int,
        ak: tuple[int, ...],
        bk: tuple[int, ...],
        dom: tuple[int, ...],
    ) -> bool:
        # a plain bool hashes in C; an Enum member hashes through Python
        key = (mode is _FULL, w, ak, bk, dom)
        got = self._memo.get(key)
        if got is not None:
            return got
        self.positions_visited += 1
        if self.positions_visited > self.cap_positions:
            raise ResourceCapError(
                f"visited positions exceed the cap {self.cap_positions} "
                f"(--cap-positions)"
            )
        result = self._winning_move(mode, w, ak, bk, dom) is not None
        self._memo[key] = result
        return result

    def _winning_move(
        self,
        mode: FoMode,
        w: int,
        ak: tuple[int, ...],
        bk: tuple[int, ...],
        dom: tuple[int, ...],
    ) -> Optional[tuple]:
        if self._first_atomic(ak, bk, dom) is not None:
            return ("win",)
        if w < 2:
            return None
        # Splits granting rank 1 to a block force that block to be won by a
        # single literal, so the block can be taken as the full set of
        # members that literal handles: separation survives shrinking a
        # side, hence a winning partition with a smaller literal-won block
        # stays winning after the swap.  This covers all u = 1 / v = 1
        # splits without enumerating partitions.
        move = self._literal_splits(mode, w, ak, bk, dom)
        if move is not None:
            return move
        # remaining splits give both blocks rank >= 2, so they only exist
        # at w >= 4; classes are still small there in practice
        for u in range(2, w - 1):
            for side, ids in (("lsplit", ak), ("rsplit", bk)):
                k = len(ids)
                for sel in range((1 << (k - 1)) - 1 if k >= 2 else 0):
                    sel2 = sel << 1 | 1
                    c = tuple(ids[i] for i in range(k) if sel2 >> i & 1)
                    d = tuple(ids[i] for i in range(k) if not sel2 >> i & 1)
                    if side == "lsplit":
                        if self._wins(mode, u, c, bk, dom) and self._wins(
                            mode, w - u, d, bk, dom
                        ):
                            return ("lsplit", u, w - u, c, d)
                    else:
                        if self._wins(mode, u, ak, c, dom) and self._wins(
                            mode, w - u, ak, d, dom
                        ):
                            return ("rsplit", u, w - u, c, d)
        # supplementing moves bind a variable and cost one rank
        for j in self._supp_vars(dom):
            dom2 = tuple(sorted(set(dom) | {j}))
            b_star = self._star_ids(bk, j)
            for a2 in self._choice_classes(ak, j):
                if self._wins(mode, w - 1, a2, b_star, dom2):
                    return ("lsupp", j, a2, b_star, dom2)
            if mode is _FULL:
                a_star = self._star_ids(ak, j)
                for b2 in self._choice_classes(bk, j):
                    if self._wins(mode, w - 1, a_star, b2, dom2):
                        return ("rsupp", j, a_star, b2, dom2)
        return None

    def _literal_splits(
        self,
        mode: FoMode,
        w: int,
        ak: tuple[int, ...],
        bk: tuple[int, ...],
        dom: tuple[int, ...],
    ) -> Optional[tuple]:
        """Splits whose first block is the full set of members one literal
        wins against the other side, paired with rank w - 1 on the rest."""
        if not ak and not bk:
            return None
        every_a, some_a, every_b, some_b = self._folds(ak, bk)
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
                    c = self._where(ak, bit, target)
                    d = self._where(ak, bit, not target)
                    if self._wins(mode, w - 1, d, bk, dom):
                        return ("lsplit", 1, w - 1, c, d)
                if rsplit & bit:
                    c = self._where(bk, bit, not target)
                    d = self._where(bk, bit, target)
                    if self._wins(mode, w - 1, ak, d, dom):
                        return ("rsplit", 1, w - 1, c, d)
        return None

    def _where(self, ids: tuple[int, ...], bit: int, value: bool) -> tuple[int, ...]:
        """The members on which the atom at ``bit`` has the given value."""
        return tuple(sid for sid in ids if bool(self._masks[sid] & bit) is value)

    # -- public API -----------------------------------------------------------

    def _enter(
        self, left: StructureClass, right: StructureClass
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        check_comparable(left, right)
        # the cap bounds a single query; solved positions answer from the
        # memo without counting
        self.positions_visited = 0
        if max(len(left.members), len(right.members)) > self.cap_class_size:
            raise ResourceCapError(
                f"class size exceeds the cap {self.cap_class_size} "
                f"(--cap-class-size)"
            )
        ak = self._canon(left.members)
        bk = self._canon(right.members)
        dom = tuple(sorted(left.domain))
        return ak, bk, dom

    def winner(
        self,
        rank: int,
        left: StructureClass,
        right: StructureClass,
        mode: FoMode = FoMode.FULL,
    ) -> Player:
        if rank < 1:
            raise InputError(f"rank must be >= 1, got {rank}")
        ak, bk, dom = self._enter(left, right)
        return Player.I if self._wins(mode, rank, ak, bk, dom) else Player.II

    def minsize(
        self,
        left: StructureClass,
        right: StructureClass,
        mode: FoMode = FoMode.FULL,
        w_max: int = 8,
    ) -> Optional[int]:
        """Smallest rank player I wins at, which equals the minimal size of
        a separating formula; None when there is none of size <= w_max."""
        if w_max < 1:
            raise InputError(f"w_max must be >= 1, got {w_max}")
        ak, bk, dom = self._enter(left, right)
        for w in range(1, w_max + 1):
            if self._wins(mode, w, ak, bk, dom):
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
        strategy, or None when player II wins at that rank.  Existential
        mode never emits a universal quantifier."""
        if rank < 1:
            raise InputError(f"rank must be >= 1, got {rank}")
        ak, bk, dom = self._enter(left, right)
        if not self._wins(mode, rank, ak, bk, dom):
            return None
        return self._extract(mode, rank, ak, bk, dom)

    def _extract(
        self,
        mode: FoMode,
        w: int,
        ak: tuple[int, ...],
        bk: tuple[int, ...],
        dom: tuple[int, ...],
    ) -> FoFormula:
        sep = self._first_atomic(ak, bk, dom)
        if sep is not None:
            atom, positive = sep
            return atom if positive else FoNot(atom)
        move = self._winning_move(mode, w, ak, bk, dom)
        assert move is not None, "extraction reached a losing position"
        kind = move[0]
        if kind == "lsplit":
            _, u, v, c, d = move
            return FoOr(
                self._extract(mode, u, c, bk, dom),
                self._extract(mode, v, d, bk, dom),
            )
        if kind == "rsplit":
            _, u, v, c, d = move
            return FoAnd(
                self._extract(mode, u, ak, c, dom),
                self._extract(mode, v, ak, d, dom),
            )
        if kind == "lsupp":
            _, j, a2, b2, dom2 = move
            return Exists(j, self._extract(mode, w - 1, a2, b2, dom2))
        _, j, a2, b2, dom2 = move
        return Forall(j, self._extract(mode, w - 1, a2, b2, dom2))


# -- module-level conveniences with default caps ------------------------------


def fo_winner(
    rank: int,
    left: StructureClass,
    right: StructureClass,
    mode: FoMode = FoMode.FULL,
) -> Player:
    return FoGame().winner(rank, left, right, mode)


def fo_minsize(
    left: StructureClass,
    right: StructureClass,
    mode: FoMode = FoMode.FULL,
    w_max: int = 8,
) -> Optional[int]:
    return FoGame().minsize(left, right, mode, w_max)


def fo_synthesize(
    left: StructureClass,
    right: StructureClass,
    rank: int,
    mode: FoMode = FoMode.FULL,
) -> Optional[FoFormula]:
    return FoGame().synthesize(left, right, rank, mode)
