"""Independent brute-force baselines the game solvers are checked against.

The propositional oracle tabulates the minimal formula size of every
Boolean function of up to 3 variables by layered dynamic programming
over truth tables: literals cost 1, and a function first reachable as a
conjunction or disjunction of two minimal pieces of total size m costs
m.  Replacing any subformula of a minimal formula by a minimal formula
for the same function never grows it, so the layers are exhaustive.

The first-order oracle enumerates negation normal form formulas by
size, interning each formula's satisfaction bitmap across all (model,
assignment) pairs so only the first (hence smallest) formula per
meaning survives.  A bitmap is one int with a fixed block of bits per
model, so the connectives are int operations and quantifiers are
shift-and-mask folds over precomputed masks.  Bitmaps compose
pointwise, which keeps the pruning sound; the dedup key also carries
the free-variable set, because a formula with a vacuous free variable
is not interchangeable with a closed formula of the same bitmap once
legality (free variables inside the class domain) matters.

Only formulas that can still end up inside a legal one are built.  A
formula of size m with j free variables outside the class domain needs
j different quantifiers above it, each adding 1 to the size, so it is
kept only if m + j <= w_max.  The pruning is exact: formulas sharing a
dedup key share their free set, hence their j, so a pruned formula
never shadows a kept one, and every legal formula comes out the same
and in the same order as from the whole enumeration.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import InputError, ResourceCapError
from .fo import (
    Assignment,
    Exists,
    FoAnd,
    FoFormula,
    FoMode,
    FoNot,
    FoOr,
    Forall,
    Model,
    Structure,
    StructureClass,
    atom_candidates,
    check_comparable,
    fo_eval,
    fo_free_vars,
)
from .props import StringProperty, check_same_width, var_mask

ORACLE_MAX_WIDTH = 3


def _check_oracle_width(n: int) -> None:
    if n < 1:
        raise InputError(f"width must be >= 1, got {n}")
    if n > ORACLE_MAX_WIDTH:
        raise ResourceCapError(
            f"the truth-table oracle enumerates all functions of up to "
            f"{ORACLE_MAX_WIDTH} variables; width {n} is out of reach"
        )


@lru_cache(maxsize=None)
def _size_map(n: int) -> tuple[int, ...]:
    """Minimal formula size of every width-n function, indexed by table."""
    nfun = 1 << (1 << n)
    full = nfun - 1
    sizes = [0] * nfun  # 0 marks "not reached yet"; constants cost 2
    layers: list[list[int]] = []
    first = []
    for i in range(1, n + 1):
        ones = var_mask(n, i)
        for t in (ones, full ^ ones):
            if sizes[t] == 0:
                sizes[t] = 1
                first.append(t)
    layers.append(first)
    reached = len(first)
    m = 1
    while reached < nfun:
        m += 1
        layer = []
        for u in range(1, m // 2 + 1):
            for f in layers[u - 1]:
                for g in layers[m - u - 1]:
                    for h in (f & g, f | g):
                        if sizes[h] == 0:
                            sizes[h] = m
                            layer.append(h)
                            reached += 1
        layers.append(layer)
    return tuple(sizes)


def min_size_table(n: int) -> dict[StringProperty, int]:
    """Minimal separating-formula size of every function of n variables,
    keyed by the property of the strings the function accepts."""
    _check_oracle_width(n)
    return {StringProperty(n, t): s for t, s in enumerate(_size_map(n))}


def oracle_minsize(left: StringProperty, right: StringProperty) -> Optional[int]:
    """Minimal size over all functions that are true on ``left`` and false
    on ``right`` (don't-cares free); None when the sides overlap."""
    check_same_width(left, right)
    _check_oracle_width(left.width)
    if left.mask & right.mask:
        return None
    sizes = _size_map(left.width)
    nfun = 1 << (1 << left.width)
    free = (nfun - 1) ^ left.mask ^ right.mask
    best = None
    x = free
    while True:
        s = sizes[left.mask | x]
        if best is None or s < best:
            best = s
        if x == 0:
            return best
        x = (x - 1) & free


def count_functions_up_to(m: int, n: int) -> int:
    """How many width-n functions have minimal size <= m."""
    _check_oracle_width(n)
    if m < 0:
        raise InputError(f"size bound must be >= 0, got {m}")
    sizes = _size_map(n)
    return sum(1 for s in sizes if 1 <= s <= m)


# ---------------------------------------------------------------------------
# first-order enumeration

FO_MAX_SYMBOLS = 2
FO_MAX_ARITY = 2
FO_MAX_ELEMENTS = 3
FO_MAX_MEMBERS = 3
FO_MAX_SIZE = 4


class FoEnumerator:
    """The NNF formulas up to a size bound over a fixed variable pool
    that can still become a legal separator, deduplicated by meaning
    across a fixed set of models.

    The pool is the class domain plus fresh variables up to the size
    bound; a formula's meaning is its satisfaction bitmap over every
    (model, total pool assignment) pair, so two formulas agreeing there
    agree on every structure the enumerator will ever be asked about.

    The bitmap is one int.  Model i owns a block of n_i ** k bits (n_i
    its universe size, k the pool size) starting at a fixed offset, one
    bit per pool assignment in ``itertools.product`` order, so pool
    position p moves in steps of n_i ** (k - 1 - p) inside the block.
    Conjunction, disjunction and negation are single int operations;
    quantifiers shift the block copies onto the assignments whose
    coordinate is 0, fold them, and spread the result back.

    A pool variable outside the class domain is *outside*.  A formula of
    size m with j free outside variables is built only if m + j <= w_max,
    since binding them takes j quantifiers above it.  A dedup key carries
    the free set, so kept keys only ever meet kept keys and the legal
    formulas, in order, match those of the whole enumeration.
    """

    def __init__(
        self,
        models: Sequence[Model],
        domain: Iterable[int],
        w_max: int,
        mode: FoMode = FoMode.FULL,
    ) -> None:
        models = list(dict.fromkeys(models))
        if not models:
            raise InputError("the enumerator needs at least one model")
        vocab = models[0].vocabulary
        if any(mo.vocabulary != vocab for mo in models):
            raise InputError("enumerator models must share one vocabulary")
        if len(vocab.symbols) > FO_MAX_SYMBOLS or any(
            arity > FO_MAX_ARITY for _, arity in vocab.symbols
        ):
            raise ResourceCapError(
                f"the formula enumerator handles at most {FO_MAX_SYMBOLS} relation "
                f"symbols of arity <= {FO_MAX_ARITY}"
            )
        if any(mo.universe_size > FO_MAX_ELEMENTS for mo in models):
            raise ResourceCapError(
                f"the formula enumerator handles models of at most "
                f"{FO_MAX_ELEMENTS} elements"
            )
        if w_max > FO_MAX_SIZE:
            raise ResourceCapError(
                f"the formula enumerator searches sizes up to {FO_MAX_SIZE}, "
                f"got {w_max}"
            )
        if w_max < 1:
            raise InputError(f"w_max must be >= 1, got {w_max}")
        self.models = models
        self.domain = frozenset(domain)
        self.mode = mode
        pool = sorted(self.domain)
        fresh = 0
        while len(pool) < len(self.domain) + w_max:
            if fresh not in self.domain:
                pool.append(fresh)
            fresh += 1
        self.pool = pool
        self._model_index = {mo: i for i, mo in enumerate(models)}
        self._offsets = []
        total = 0
        for mo in models:
            self._offsets.append(total)
            total += mo.universe_size ** len(pool)
        self._full = (1 << total) - 1
        self._quantifier_masks = [self._masks_at(p) for p in range(len(pool))]
        self.w_max = w_max
        self._outside = sum(1 << p for p, v in enumerate(pool) if v not in self.domain)
        # separator candidates: the legal formulas in layer order, the
        # first (hence smallest) per bitmap
        legal: dict[int, FoFormula] = {}
        for layer in self._enumerate(w_max, self._outside):
            for f, fmap, ffree in layer:
                if not ffree & self._outside and fmap not in legal:
                    legal[fmap] = f
        self._legal = list(legal.items())

    def _masks_at(self, p: int) -> list[tuple[int, tuple[int, ...]]]:
        """Per universe size n: the assignments of every block of that size
        whose pool coordinate p is 0, and the shifts a * stride that move
        coordinate value a onto them."""
        k = len(self.pool)
        by_size: dict[int, tuple[int, tuple[int, ...]]] = {}
        for mo, off in zip(self.models, self._offsets):
            n = mo.universe_size
            stride = n ** (k - 1 - p)
            block = sum(1 << idx for idx in range(n**k) if idx // stride % n == 0)
            sel0 = by_size.get(n, (0,))[0] | block << off
            by_size[n] = (sel0, tuple(a * stride for a in range(1, n)))
        return list(by_size.values())

    def _exists(self, bits: int, p: int) -> int:
        out = 0
        for sel0, shifts in self._quantifier_masks[p]:
            t = bits
            for shift in shifts:
                t |= bits >> shift
            t &= sel0
            out |= t
            for shift in shifts:
                out |= t << shift
        return out

    def _forall(self, bits: int, p: int) -> int:
        out = 0
        for sel0, shifts in self._quantifier_masks[p]:
            t = sel0 & bits
            for shift in shifts:
                t &= bits >> shift
            out |= t
            for shift in shifts:
                out |= t << shift
        return out

    def _atom_bitmaps(self, atoms: list[FoFormula]) -> list[int]:
        points = [
            (off + idx, Structure(mo, Assignment.make(zip(self.pool, values))))
            for mo, off in zip(self.models, self._offsets)
            for idx, values in enumerate(
                itertools.product(range(mo.universe_size), repeat=len(self.pool))
            )
        ]
        return [
            sum(1 << bit for bit, st in points if fo_eval(atom, st)) for atom in atoms
        ]

    def _enumerate(
        self, w_max: int, outside: int
    ) -> list[list[tuple[FoFormula, int, int]]]:
        # a formula's free variables are a mask over pool positions, packed
        # with its bitmap into one dedup key; a size-m formula is kept only
        # if at most w_max - m of them lie in ``outside``
        k = len(self.pool)
        seen: set[int] = set()
        layers: list[list[tuple[FoFormula, int, int]]] = []
        atoms = atom_candidates(self.models[0].vocabulary, self.pool)
        first = []
        for atom, bitmap in zip(atoms, self._atom_bitmaps(atoms)):
            free = sum(1 << self.pool.index(v) for v in fo_free_vars(atom))
            if (free & outside).bit_count() > w_max - 1:
                continue
            for f, fmap in ((atom, bitmap), (FoNot(atom), bitmap ^ self._full)):
                key = fmap << k | free
                if key not in seen:
                    seen.add(key)
                    first.append((f, fmap, free))
        layers.append(first)
        full_mode = self.mode is FoMode.FULL
        for m in range(2, w_max + 1):
            budget = w_max - m
            # filtering keeps the order, so rights[i:] below pairs the same
            # formulas as in the unpruned layers
            fits = [
                [t for t in layer if (t[2] & outside).bit_count() <= budget]
                for layer in layers
            ]
            layer = []
            # (g, f) gives the bitmaps and free set of (f, g), so only
            # pairs with u <= m - u, and j >= i inside one layer, are new
            for u in range(1, m // 2 + 1):
                lefts, rights = fits[u - 1], fits[m - u - 1]
                for i, (f, fmap, ffree) in enumerate(lefts):
                    for g, gmap, gfree in rights[i:] if u == m - u else rights:
                        hfree = ffree | gfree
                        if (hfree & outside).bit_count() > budget:
                            continue
                        hmap = fmap & gmap
                        key = hmap << k | hfree
                        if key not in seen:
                            seen.add(key)
                            layer.append((FoAnd(f, g), hmap, hfree))
                        hmap = fmap | gmap
                        key = hmap << k | hfree
                        if key not in seen:
                            seen.add(key)
                            layer.append((FoOr(f, g), hmap, hfree))
            for f, fmap, ffree in layers[m - 2]:
                for p, var in enumerate(self.pool):
                    qfree = ffree & ~(1 << p)
                    if (qfree & outside).bit_count() > budget:
                        continue
                    emap = self._exists(fmap, p)
                    key = emap << k | qfree
                    if key not in seen:
                        seen.add(key)
                        layer.append((Exists(var, f), emap, qfree))
                    if full_mode:
                        amap = self._forall(fmap, p)
                        key = amap << k | qfree
                        if key not in seen:
                            seen.add(key)
                            layer.append((Forall(var, f), amap, qfree))
            layers.append(layer)
        return layers

    def _member_bit(self, st: Structure) -> int:
        """Bitmap position of a structure."""
        mi = self._model_index.get(st.model)
        if mi is None:
            raise InputError("structure's model is outside the enumerator scope")
        # unassigned pool coordinates are padded with element 0; formulas
        # whose free variables sit inside the domain cannot see the padding
        values = st.assignment.as_dict()
        n = st.model.universe_size
        idx = 0
        for v in self.pool:
            idx = idx * n + values.get(v, 0)
        return self._offsets[mi] + idx

    def separator(
        self, left: StructureClass, right: StructureClass
    ) -> Optional[FoFormula]:
        """The smallest enumerated formula separating the classes, or None."""
        check_comparable(left, right)
        if left.domain != self.domain:
            raise InputError("class domain differs from the enumerator domain")
        if max(len(left.members), len(right.members)) > FO_MAX_MEMBERS:
            raise ResourceCapError(
                f"the formula enumerator compares classes of at most "
                f"{FO_MAX_MEMBERS} members"
            )
        lmask = rmask = 0
        for st in left.members:
            lmask |= 1 << self._member_bit(st)
        for st in right.members:
            rmask |= 1 << self._member_bit(st)
        for fmap, f in self._legal:
            if fmap & lmask == lmask and not fmap & rmask:
                return f
        return None


def fo_enumerate_separator(
    left: StructureClass,
    right: StructureClass,
    w_max: int,
    mode: FoMode = FoMode.FULL,
) -> Optional[FoFormula]:
    """Brute-force smallest separating formula of size <= w_max, for
    cross-checking the game solver at tiny scales."""
    check_comparable(left, right)
    models = [st.model for st in left.members] + [st.model for st in right.members]
    if not models:
        raise InputError("cannot enumerate over two empty classes")
    enum = FoEnumerator(models, left.domain, w_max, mode)
    return enum.separator(left, right)
