"""Shared suite runners used by both the module tests and the acceptance
gate.  Each runner returns a list of human-readable violation strings so
callers can assert emptiness with their own framing."""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from efgames import (
    Assignment,
    ContractError,
    EMPTY_ASSIGNMENT,
    EqAtom,
    Exists,
    FoAnd,
    FoEnumerator,
    FoFormula,
    FoGame,
    FoMode,
    FoNot,
    FoOr,
    Forall,
    InputError,
    Model,
    Player,
    PropGame,
    StringProperty,
    Structure,
    StructureClass,
    ResourceCapError,
    Vocabulary,
    atomic_separators,
    boolcomb_instances,
    density,
    extend_choice,
    extend_star,
    fo_free_vars,
    fo_separates,
    fo_size,
    format_fo,
    is_existential,
    linorder_instances,
    literal_win,
    measure_M,
    measure_N,
)
from efgames.fo import check_comparable
from efgames.fogame import _FULL
from efgames.propgame import _expand, _first_literal, _literal_masks
from efgames.props import And, Literal, Or, PropFormula, _strings_mask, var_mask

# Cited by the linear-order suite runners when a violation appears: the
# distance function is a reconstruction, so failures should point at it
# before anything else.
D_CONVENTION_NOTE = (
    "suspect the distance convention: d(x, y) counts the steps "
    "|{z : x < z <= y}|, the left boundary is a virtual element one step "
    "below the least element, and the right boundary is the actual largest "
    "element (so the empty assignment on a k-element order has delta k)"
)


def random_property_pair(
    rng: random.Random, width: int
) -> tuple[StringProperty, StringProperty]:
    """A uniformly random disjoint nonempty pair of the given width."""
    total = 1 << (1 << width)
    while True:
        smask = rng.randrange(1, total)
        rest = (total - 1) ^ smask
        if rest == 0:
            continue
        rmask = 0
        bit = 1
        scan = rest
        while scan:
            if scan & 1 and rng.random() < 0.5:
                rmask |= bit
            scan >>= 1
            bit <<= 1
        if rmask:
            return StringProperty(width, smask), StringProperty(width, rmask)


def _submasks(m: int):
    """All submasks of m including 0 and m, descending."""
    x = m
    while True:
        yield x
        if x == 0:
            return
        x = (x - 1) & m


class ReferenceSizeTable:
    """The top-down recursive size table that ``PropGame.value`` replaced,
    kept verbatim as the reference for the per-root fill."""

    def __init__(self, width: int) -> None:
        self.width = width
        self._value: dict[tuple[int, int], int] = {}
        self._full = _strings_mask(width)

    def _literal(self, smask: int, rmask: int) -> Optional[Literal]:
        full = self._full
        for i in range(1, self.width + 1):
            ones = var_mask(self.width, i)
            zeros = full ^ ones
            if smask & zeros == 0 and rmask & ones == 0:
                return Literal(i, True)
            if smask & ones == 0 and rmask & zeros == 0:
                return Literal(i, False)
        return None

    def value(self, smask: int, rmask: int) -> int:
        key = (smask, rmask)
        got = self._value.get(key)
        if got is not None:
            return got
        if self._literal(smask, rmask) is not None:
            best = 1
        elif smask == 0 or rmask == 0:
            best = 2
        else:
            best = 1 << 60
            # two nonempty disjoint blocks; pinning the lowest string into c
            # makes each unordered partition appear exactly once
            low = smask & -smask
            rest = smask ^ low
            for x in _submasks(rest):
                if x == rest:
                    continue  # d would be empty
                c = low | x
                cand = self.value(c, rmask) + self.value(smask ^ c, rmask)
                if cand < best:
                    best = cand
            low = rmask & -rmask
            rest = rmask ^ low
            for x in _submasks(rest):
                if x == rest:
                    continue
                c = low | x
                cand = self.value(smask, c) + self.value(smask, rmask ^ c)
                if cand < best:
                    best = cand
        self._value[key] = best
        return best


class ReferenceExactGame:
    """The tuple-keyed exact-mode search that ``PropGame`` replaced, kept
    verbatim as the reference for its per-root records: every position is
    memoized under (w, smask, rmask), and each one looks for a literal with
    ``_first_literal``."""

    def __init__(self, width: int) -> None:
        self._literals = _literal_masks(width)
        self._exact: dict[tuple[int, int, int], bool] = {}

    def wins(self, w: int, smask: int, rmask: int) -> bool:
        key = (w, smask, rmask)
        got = self._exact.get(key)
        if got is None:
            got = self._exact[key] = self._search(w, smask, rmask)
        return got

    def _search(self, w: int, smask: int, rmask: int) -> bool:
        if _first_literal(self._literals, smask, rmask) is not None:
            return True
        if w == 1:
            return False
        # ordered covers c | d = side, blocks may repeat strings or be empty;
        # (c, d) at ranks (u, v) and (d, c) at (v, u) are one move, so u <= v
        for u in range(1, w // 2 + 1):
            v = w - u
            for c in _submasks(smask):
                rest = smask ^ c
                if not self.wins(u, c, rmask):
                    continue
                for x in _submasks(c):
                    if self.wins(v, rest | x, rmask):
                        return True
            for c in _submasks(rmask):
                rest = rmask ^ c
                if not self.wins(u, smask, c):
                    continue
                for x in _submasks(c):
                    if self.wins(v, smask, rest | x):
                        return True
        return False


def reference_build(
    literals: tuple[tuple[int, int], ...], fill, a: int, b: int
) -> PropFormula:
    """The scan that ``propgame._build`` replaced, kept verbatim as the
    reference for its texts: every block c of a side is read, in descending
    mask order, and the optimal split with the least (u, c) wins, left
    splits first."""
    cells, sa, sb = fill.cells, fill.sa, fill.sb
    target = cells[a * sa + b * sb]
    if target == 1:
        lit = _first_literal(literals, _expand(fill.smask, a), _expand(fill.rmask, b))
        if lit is not None:
            return lit.formula()
    best: Optional[tuple[int, int]] = None  # (u, c)
    at = b * sb
    for c in _submasks(a):
        d = a ^ c
        if c and d:
            u = cells[c * sa + at]
            if u + cells[d * sa + at] == target:
                if best is None or (u, c) < best:
                    best = (u, c)
    if best is not None:
        _, c = best
        return Or(
            reference_build(literals, fill, c, b), reference_build(literals, fill, a ^ c, b)
        )
    at = a * sa
    for c in _submasks(b):
        d = b ^ c
        if c and d:
            u = cells[at + c * sb]
            if u + cells[at + d * sb] == target:
                if best is None or (u, c) < best:
                    best = (u, c)
    if best is None:
        raise ContractError("size table admits no optimal split")  # unreachable
    _, c = best
    return And(
        reference_build(literals, fill, a, c), reference_build(literals, fill, a, b ^ c)
    )


class ReferenceFoGame(FoGame):
    """The tuple-keyed search that ``FoGame`` replaced, kept verbatim as
    the reference for the bitset memo keys and the choice scan: a class is
    a tuple of ids sorted by ``sort_key``, and every choice function is
    sorted into such a tuple and solved through ``_wins``.  Only interning
    and the extensions are inherited: ``_enter`` and ``_folds`` are the
    tuple versions ``FoGame`` kept until a class became one bitset, and
    ``_first_atomic`` is a verbatim copy of the atomic check ``FoGame``
    kept beside ``_winning_move`` until that became its one decision."""

    def _canon(self, members: Iterable[Structure]) -> tuple[int, ...]:
        ids = {self._intern(st.model, st.assignment.items) for st in members}
        return tuple(sorted(ids, key=self._keys.__getitem__))

    def _bitset(self, ids: Iterable[int]) -> int:
        return sum(1 << sid for sid in ids)

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
        total = math.prod(self._by_id[sid][0].universe_size for sid in ids)
        if total > self.cap_choice_functions:
            raise ResourceCapError(
                f"{total} choice functions exceed the cap "
                f"{self.cap_choice_functions} (--cap-choice-functions)"
            )
        order = self._keys.__getitem__
        for picks in itertools.product(*(self._extensions(sid, j) for sid in ids)):
            yield tuple(sorted(set(picks), key=order))

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

    def winner(
        self,
        rank: int,
        left: StructureClass,
        right: StructureClass,
        mode: FoMode = FoMode.FULL,
    ) -> Player:
        if rank < 1:
            raise InputError(f"rank must be >= 1, got {rank}")
        ak, _, bk, _, dom = self._enter(left, right, rank)
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
        ak, _, bk, _, dom = self._enter(left, right, 1)
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
        ak, _, bk, _, dom = self._enter(left, right, rank)
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


class ReuseVariables:
    """Mixin for a first-order solver whose supplements may also rebind the
    variables already in the domain, for the cross-checks that reuse
    changes no answer."""

    def _supp_vars(self, dom: tuple[int, ...]) -> list[int]:
        return super()._supp_vars(dom) + list(dom)


class ReusingFoGame(ReuseVariables, FoGame):
    pass


class ReusingReferenceFoGame(ReuseVariables, ReferenceFoGame):
    pass


def fo_search_mismatches(
    queries: list[tuple[StructureClass, StructureClass, int]],
    mode: FoMode,
    reuse: bool = False,
) -> list[str]:
    """Ask each (left, right, rank) in order of one ``FoGame`` and one
    ``ReferenceFoGame`` (with ``reuse``, their ``ReuseVariables`` forms), so
    both memos fill alike.  Per query the winners, ``positions_visited``
    and, where player I wins, the text of the synthesized formula and the
    positions synthesis visits must agree.  A query that hits a cap must
    hit the same one after as many positions."""
    if reuse:
        game, ref = ReusingFoGame(), ReusingReferenceFoGame()
    else:
        game, ref = FoGame(), ReferenceFoGame()
    violations = []
    for i, (left, right, w) in enumerate(queries):
        answers = []
        for solver in (game, ref):
            try:
                won = solver.winner(w, left, right, mode)
            except ResourceCapError as exc:
                flag = str(exc).partition("(--")[2].partition(")")[0]
                answers.append(("cap", flag, solver.positions_visited))
                continue
            visited = solver.positions_visited
            text = None
            if won is Player.I:
                text = format_fo(solver.synthesize(left, right, w, mode))
            answers.append((won, visited, text, solver.positions_visited))
        if answers[0] != answers[1]:
            violations.append(
                f"{mode.value} query {i} at rank {w}: (winner, positions, formula, "
                f"synthesis positions) {answers[0]} against the reference's "
                f"{answers[1]}"
            )
    return violations


@functools.lru_cache(maxsize=None)
def reference_sizes(width: int) -> ReferenceSizeTable:
    """One reference per width for callers that read only its sizes, which
    do not depend on what it visited before."""
    return ReferenceSizeTable(width)


@functools.lru_cache(maxsize=None)
def _reference_run(
    width: int, roots: tuple[tuple[int, int], ...]
) -> tuple[ReferenceSizeTable, list[int]]:
    """The reference after answering the roots in order, computed once per
    (width, roots), and the length of its table after each root.  The table
    only grows, so what it visited for each prefix of the roots is a leading
    slice of it in insertion order."""
    ref, lengths = ReferenceSizeTable(width), []
    for root in roots:
        ref.value(*root)
        lengths.append(len(ref._value))
    return ref, lengths


def size_table_mismatches(width: int, roots: list[tuple[int, int]]) -> list[str]:
    """Answer the roots in order on one PropGame and on the reference.
    After each root the returned sizes must agree, and the game must answer
    every position the reference visited for the roots so far with the
    reference's size.  Each new fill is read once, when it appears: every
    cell, its compact indices expanded over the root's masks, must hold the
    reference's size (from the reference's table, else 1 where a literal
    separates the cell, else the reference's value), and table_entries must
    grow by the number of its cells with both sides nonempty.  A root that
    a literal separates, or that has an empty side, must add no fill and
    leave table_entries as it was, and table_entries must read the table's
    length."""
    game, (ref, lengths) = PropGame(width), _reference_run(width, tuple(roots))
    # a cell the reference never visits is a literal win or has an empty
    # side; a second reference sizes the latter, so ref holds what it visited
    spare = reference_sizes(width)
    table = game._value
    violations = []
    for (smask, rmask), visited in zip(roots, lengths):
        where = f"width {width} after root {smask:#x}/{rmask:#x}"
        seen, entries = len(table.fills), game.table_entries
        got, want = game.value(smask, rmask), ref.value(smask, rmask)
        if got != want:
            violations.append(
                f"width {width} root {smask:#x}/{rmask:#x}: {got} != {want}"
            )
        if ref._literal(smask, rmask) is not None or not smask or not rmask:
            if len(table.fills) != seen or game.table_entries != entries:
                violations.append(
                    f"{where}: a root answered without a fill changed the table"
                )
        # the positions the reference visited for the roots so far
        so_far = itertools.islice(ref._value.items(), visited)
        wrong = sum(game.value(*key) != v for key, v in so_far)
        if wrong:
            violations.append(f"{where}: {wrong} reference positions answered wrong")
        answered = 0  # the new fills' cells with both sides nonempty
        for fill in table.fills[seen:]:
            wrong = 0
            for a, s in enumerate(compact_masks(fill.smask)):
                for b, r in enumerate(compact_masks(fill.rmask)):
                    v = ref._value.get((s, r))
                    if v is None:
                        v = 1 if ref._literal(s, r) is not None else spare.value(s, r)
                    wrong += fill.size(a, b) != v
                    answered += bool(s and r)
            if wrong:
                violations.append(f"{where}: {wrong} wrong cells in its fill")
        if game.table_entries != entries + answered:
            violations.append(
                f"{where}: table_entries grew by {game.table_entries - entries}, "
                f"not by the new fills' {answered} cells with both sides nonempty"
            )
        if game.table_entries != len(table):
            violations.append(
                f"{where}: table_entries reads {game.table_entries}, "
                f"the table's length {len(table)}"
            )
    return violations


def compact_masks(mask: int) -> list[int]:
    """The submasks of mask by compact index: bit j of the index stands for
    the j-th lowest member of mask."""
    masks = [0]
    # one step per member, lowest first: a shift per bit position would
    # cost quadratic time on a width-16 mask of 2**16 bits
    while mask:
        low = mask & -mask
        masks += [low | x for x in masks]
        mask ^= low
    return masks


def lemma_literal_blindness(rng: random.Random, trials: int = 500) -> list[str]:
    """Density above 1 on either side rules out a one-literal separation."""
    violations = []
    for _ in range(trials):
        width = rng.randint(1, 6)
        left, right = random_property_pair(rng, width)
        pair = density(left, right)
        if (pair.left > 1 or pair.right > 1) and literal_win(left, right) is not None:
            violations.append(
                f"density {pair.left},{pair.right} but a literal separates "
                f"{sorted(map(str, left.strings()))} from "
                f"{sorted(map(str, right.strings()))}"
            )
    return violations


def lemma_density_subadditivity(rng: random.Random, trials: int = 500) -> list[str]:
    """Splitting either side never drops the density product below the
    whole: s0*r0 + s1*r1 >= s*r, in exact rationals."""
    violations = []
    for _ in range(trials):
        width = rng.randint(1, 6)
        left, right = random_property_pair(rng, width)
        whole = density(left, right)
        target = whole.left * whole.right
        for side, other, tag in ((left, right, "left"), (right, left, "right")):
            members = list(side.strings())
            if len(members) < 2:
                continue
            picks = [rng.random() < 0.5 for _ in members]
            if all(picks) or not any(picks):
                continue  # degenerate block, the bound needs both halves
            c = StringProperty.from_strings(
                side.width, [s for s, p in zip(members, picks) if p]
            )
            d = StringProperty.from_strings(
                side.width, [s for s, p in zip(members, picks) if not p]
            )
            if tag == "left":
                first, second = density(c, other), density(d, other)
            else:
                first, second = density(other, c), density(other, d)
            total = first.left * first.right + second.left * second.right
            if total < target:
                violations.append(
                    f"{tag} split gives {total} < {target} on "
                    f"{sorted(map(str, left.strings()))} vs "
                    f"{sorted(map(str, right.strings()))}"
                )
    return violations


# ---------------------------------------------------------------------------
# combination family


def _boolcomb_positions(n_max: int = 3, extend_to: int = 2):
    """Instance pairs plus every chain of reference-choice / adversary-star
    extensions up to the given depth (depth limited to n <= extend_to)."""
    for n in range(1, n_max + 1):
        left, right = boolcomb_instances(n)
        frontier = [(left, right)]
        yield n, left, right
        if n > extend_to:
            continue
        for depth in range(2):
            nxt = []
            for a, b in frontier:
                j = len(a.domain)
                b2 = extend_star(b, j)
                ref = a.members[0]
                for pick in range(ref.model.universe_size):
                    a2 = extend_choice(a, [pick], j)
                    yield n, a2, b2
                    nxt.append((a2, b2))
            frontier = nxt


def lemma_measure_m_blindness() -> list[str]:
    """measure_M above 1 means no atomic separator exists."""
    violations = []
    for n, a, b in _boolcomb_positions():
        if measure_M(a, b) > 1 and atomic_separators(a, b):
            violations.append(
                f"n={n}, domain {sorted(a.domain)}: M > 1 yet an atom separates"
            )
    return violations


def lemma_measure_m_subadditivity(rng: random.Random, trials: int = 200) -> list[str]:
    """Partitioning the adversary class never loses measure: M(C) + M(D)
    >= M(B)."""
    violations = []
    positions = list(_boolcomb_positions())
    for _ in range(trials):
        n, a, b = positions[rng.randrange(len(positions))]
        k = len(b.members)
        if k < 2:
            continue
        sel = rng.randrange(1, (1 << k) - 1)
        c = StructureClass(
            b.vocabulary,
            b.domain,
            tuple(m for i, m in enumerate(b.members) if sel >> i & 1),
        )
        d = StructureClass(
            b.vocabulary,
            b.domain,
            tuple(m for i, m in enumerate(b.members) if not sel >> i & 1),
        )
        if measure_M(a, c) + measure_M(a, d) < measure_M(a, b):
            violations.append(f"n={n}: splitting the adversary class lost measure")
    return violations


def lemma_measure_m_supplement() -> list[str]:
    """A star extension costs at most one unit of measure, for every
    reference choice: M(A', B*) >= M(A, B) - 1.  Exhaustive for n <= 2."""
    violations = []
    for n in (1, 2):
        left, right = boolcomb_instances(n)
        frontier = [(left, right)]
        for depth in range(2):
            nxt = []
            for a, b in frontier:
                base = measure_M(a, b)
                j = len(a.domain)
                b2 = extend_star(b, j)
                ref = a.members[0]
                for pick in range(ref.model.universe_size):
                    a2 = extend_choice(a, [pick], j)
                    got = measure_M(a2, b2)
                    if got < base - 1:
                        violations.append(
                            f"n={n}, depth {depth}, pick {pick}: "
                            f"M dropped {base} -> {got}"
                        )
                    nxt.append((a2, b2))
            frontier = nxt
    return violations



def lemma_measure_m_soundness() -> list[str]:
    """M is a lower bound: measure_M never exceeds the exact existential
    minimal size at the n = 1 instance pair and at every position reached
    by one or two supplementing extensions.  The search runs up to rank
    (n + 1) * 2**n.  The n = 2 positions stop at the default class-size
    cap and are left out until the split search over bitset classes
    lifts it."""
    violations = []
    game = FoGame()
    for n, a, b in _boolcomb_positions(n_max=1):
        bound = measure_M(a, b)
        exact = game.minsize(a, b, FoMode.EXISTENTIAL, (n + 1) * 2**n)
        if exact is None or bound > exact:
            violations.append(
                f"n={n}, assignment {dict(a.members[0].assignment.items)}: "
                f"measure_M {bound} against the exact existential size {exact}"
            )
    return violations

# ---------------------------------------------------------------------------
# linear orders


def _linorder_positions(n_max: int = 4):
    """Instance pairs and all chains of <= 2 supplementing extensions."""
    for n in range(2, n_max + 1):
        left, right = linorder_instances(n)
        frontier = [(left, right)]
        yield n, left, right
        for depth in range(2):
            nxt = []
            for a, b in frontier:
                j = len(a.domain)
                b2 = extend_star(b, j)
                ref = a.members[0]
                for pick in range(ref.model.universe_size):
                    a2 = extend_choice(a, [pick], j)
                    yield n, a2, b2
                    nxt.append((a2, b2))
            frontier = nxt


def lemma_measure_n_blindness() -> list[str]:
    """measure_N above 1 means no atomic separator exists."""
    violations = []
    for n, a, b in _linorder_positions():
        if measure_N(a, b) > 1 and atomic_separators(a, b):
            violations.append(
                f"n={n}, domain {sorted(a.domain)}: N > 1 yet an atom "
                f"separates; {D_CONVENTION_NOTE}"
            )
    return violations


def lemma_measure_n_subadditivity(rng: random.Random, trials: int = 200) -> list[str]:
    violations = []
    positions = [(n, a, b) for n, a, b in _linorder_positions() if len(b.members) >= 2]
    for _ in range(trials):
        n, a, b = positions[rng.randrange(len(positions))]
        k = len(b.members)
        sel = rng.randrange(1, (1 << k) - 1)
        c = StructureClass(
            b.vocabulary,
            b.domain,
            tuple(m for i, m in enumerate(b.members) if sel >> i & 1),
        )
        d = StructureClass(
            b.vocabulary,
            b.domain,
            tuple(m for i, m in enumerate(b.members) if not sel >> i & 1),
        )
        if measure_N(a, c) + measure_N(a, d) < measure_N(a, b):
            violations.append(
                f"n={n}: splitting the order class lost measure; {D_CONVENTION_NOTE}"
            )
    return violations


def lemma_measure_n_supplement() -> list[str]:
    """N(A', B*) >= N(A, B) - 1 for every reference choice and fresh index,
    exhaustive through two extensions for n <= 4."""
    violations = []
    for n in range(2, 5):
        left, right = linorder_instances(n)
        frontier = [(left, right)]
        for depth in range(2):
            nxt = []
            for a, b in frontier:
                base = measure_N(a, b)
                j = len(a.domain)
                b2 = extend_star(b, j)
                ref = a.members[0]
                for pick in range(ref.model.universe_size):
                    a2 = extend_choice(a, [pick], j)
                    got = measure_N(a2, b2)
                    if got < base - 1:
                        violations.append(
                            f"n={n}, depth {depth}, pick {pick}: N dropped "
                            f"{base} -> {got}; {D_CONVENTION_NOTE}"
                        )
                    nxt.append((a2, b2))
            frontier = nxt
    return violations


def lemma_measure_n_soundness() -> list[str]:
    """N is a lower bound: measure_N never exceeds the exact existential
    minimal size at the instance pairs and at every position reached by
    one or two supplementing extensions, for n <= 3.  The chain sentence
    separates every such position at size 2n - 1, so that is the rank
    searched."""
    violations = []
    game = FoGame()
    for n, a, b in _linorder_positions(n_max=3):
        bound = measure_N(a, b)
        exact = game.minsize(a, b, FoMode.EXISTENTIAL, 2 * n - 1)
        if exact is None or bound > exact:
            violations.append(
                f"n={n}, assignment {dict(a.members[0].assignment.items)}: "
                f"measure_N {bound} against the exact existential size {exact}"
            )
    return violations


# ---------------------------------------------------------------------------
# tiny first-order universe: one unary symbol, every model with <= 2
# elements, every class with <= 2 members over the empty domain


@dataclass
class TinyRecord:
    left: StructureClass
    right: StructureClass
    enum_best: Optional[int]
    wins: tuple[bool, ...]  # player I wins at rank 1..w_max


def tiny_fo_universe() -> tuple[list[Model], list[StructureClass]]:
    vocab = Vocabulary.make(("P1", 1))
    models = []
    for size in (1, 2):
        for bits in range(1 << size):
            rel = frozenset((e,) for e in range(size) if bits >> e & 1)
            models.append(Model.make(vocab, size, {"P1": rel}))
    structs = [Structure(m, EMPTY_ASSIGNMENT) for m in models]
    classes = [
        StructureClass.of(frozenset(combo), vocabulary=vocab, domain=frozenset())
        for k in (1, 2)
        for combo in itertools.combinations(structs, k)
    ]
    return models, classes


def build_tiny_fo_suite(w_max: int = 4) -> dict[FoMode, tuple[FoGame, list[TinyRecord]]]:
    """Solve every class pair at every rank in both modes and record the
    smallest separating-formula size found by plain enumeration."""
    models, classes = tiny_fo_universe()
    out = {}
    for mode in (FoMode.EXISTENTIAL, FoMode.FULL):
        enum = FoEnumerator(models, (), w_max, mode)
        game = FoGame()
        records = []
        for a in classes:
            for b in classes:
                sep = enum.separator(a, b)
                best = None if sep is None else fo_size(sep)
                wins = tuple(
                    game.winner(w, a, b, mode) is Player.I
                    for w in range(1, w_max + 1)
                )
                records.append(TinyRecord(a, b, best, wins))
        out[mode] = (game, records)
    return out


# ---------------------------------------------------------------------------
# binary vocabularies against the oracle: seeded random classes over a binary
# relation E, alone or with a unary P


BINARY_VOCABULARIES = (
    Vocabulary.make(("E", 2)),
    Vocabulary.make(("E", 2), ("P", 1)),
)


def _random_structure(
    rng: random.Random, vocab: Vocabulary, domain: tuple[int, ...]
) -> Structure:
    """A structure of 1-2 elements: each tuple of each relation holds with
    probability 1/2, and each domain variable goes to a random element."""
    n = rng.randint(1, 2)
    rels = {
        name: [row for row in itertools.product(range(n), repeat=arity) if rng.random() < 0.5]
        for name, arity in vocab.symbols
    }
    values = {j: rng.randrange(n) for j in domain}
    return Structure(Model.make(vocab, n, rels), Assignment.make(values))


def binary_oracle_batch(
    seed: int, mode: FoMode, queries: int, w_max: int = 3
) -> tuple[list[str], int, dict[Optional[int], int]]:
    """Ask one ``FoGame`` the minimal size of each seeded query, a pair of
    classes of 1-3 structures over one vocabulary of
    ``BINARY_VOCABULARIES`` and one domain, () or (0,), and compare it with
    the ``FoEnumerator`` separator's size (None past w_max).  Where the game
    answers k, its synthesized formula must separate within size k, use
    only domain variables and, in existential mode, be existential.

    Returns (violations, queries a cap stopped, tally of the oracle's
    sizes over the queries that no cap stopped)."""
    rng = random.Random(seed)
    batch = []
    for _ in range(queries):
        vocab = rng.choice(BINARY_VOCABULARIES)
        domain = rng.choice(((), (0,)))
        batch.append(tuple(
            StructureClass.of(
                [_random_structure(rng, vocab, domain) for _ in range(rng.randint(1, 3))],
                vocabulary=vocab,
                domain=domain,
            )
            for _ in range(2)
        ))
    # one enumerator per (vocabulary, domain), over every model asked there
    models: dict[tuple, dict[Model, None]] = {}
    for left, right in batch:
        group = models.setdefault((left.vocabulary, left.domain), {})
        group.update(dict.fromkeys(st.model for st in left.members + right.members))
    enums = {
        key: FoEnumerator(list(group), key[1], w_max, mode) for key, group in models.items()
    }
    game = FoGame()
    violations, capped, tally = [], 0, {}
    for i, (left, right) in enumerate(batch):
        sep = enums[left.vocabulary, left.domain].separator(left, right)
        best = None if sep is None else fo_size(sep)
        try:
            k = game.minsize(left, right, mode, w_max)
            f = None if k is None else game.synthesize(left, right, k, mode)
        except ResourceCapError:
            capped += 1
            continue
        tally[best] = tally.get(best, 0) + 1
        where = f"seed {seed} {mode.value} query {i}"
        if k != best:
            violations.append(f"{where}: the game answers {k}, the oracle {best}")
        elif f is not None and not (
            fo_size(f) <= k
            and fo_free_vars(f) <= left.domain
            and fo_separates(f, left, right)
            and (mode is FoMode.FULL or is_existential(f))
        ):
            violations.append(f"{where}: synthesized {format_fo(f)} fails its check")
    return violations, capped, tally
