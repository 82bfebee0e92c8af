"""Shared suite runners used by both the module tests and the acceptance
gate.  Each runner returns a list of human-readable violation strings so
callers can assert emptiness with their own framing."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from efgames import (
    EMPTY_ASSIGNMENT,
    FoEnumerator,
    FoGame,
    FoMode,
    Model,
    Player,
    PropGame,
    StringProperty,
    Structure,
    StructureClass,
    Vocabulary,
    atomic_separators,
    boolcomb_instances,
    density,
    extend_choice,
    extend_star,
    fo_size,
    linorder_instances,
    literal_win,
    measure_M,
    measure_N,
)
from efgames.props import Literal, _strings_mask, var_mask

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


def size_table_mismatches(width: int, roots: list[tuple[int, int]]) -> list[str]:
    """Answer the roots in order on one PropGame and on the reference; after
    each root the two size tables must agree key for key and value for
    value, and so must the returned sizes."""
    game, ref = PropGame(width), ReferenceSizeTable(width)
    violations = []
    for smask, rmask in roots:
        got, want = game.value(smask, rmask), ref.value(smask, rmask)
        if got != want:
            violations.append(
                f"width {width} root {smask:#x}/{rmask:#x}: {got} != {want}"
            )
        if game._value != ref._value:
            extra = game._value.keys() - ref._value.keys()
            missing = ref._value.keys() - game._value.keys()
            wrong = sum(
                game._value[k] != v for k, v in ref._value.items() if k in game._value
            )
            violations.append(
                f"width {width} after root {smask:#x}/{rmask:#x}: {len(extra)} extra, "
                f"{len(missing)} missing, {wrong} wrong table entries"
            )
    return violations


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
