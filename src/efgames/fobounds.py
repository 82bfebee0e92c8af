"""Benchmark families over finite structures, with the counting measures
that certify formula-size lower bounds for them.

Combination family: the reference model realizes every subset of n unary
predicates exactly once (element e(r) has trace r, reading trace bits
i-1 from membership in P_i).  Each adversary model drops one trace s and
realizes every other trace twice, as a preferred copy b_r (the smaller
element index) and a spare c_r.  The measure M counts adversary members
that still track the reference assignment: flawless members (every
assigned variable sits on the preferred copy of its trace) weigh n + 1
and good-enough members (perfect except that the dropped trace s is
covered by one shared spare whose trace is a Hamming neighbor of s)
weigh 1.

Linear-order family: an n-element order against an (n-1)-element order.
An adversary assignment is acceptable when it maps the reference
elements to images in weakly increasing order (variables sharing a
reference element must share an image; distinct reference elements may
collapse onto one image).  Boundary segments are measured with a
virtual element one step below the least element and the actual
greatest element on top, with d(x, y) = the number of steps from x up
to y; a nice member has exactly one segment whose step count differs
from the reference.  It weighs the size of the existential chain formula
that refutes it: with e reference elements strictly inside that segment,
the chain quantifies those e elements and links them, and the segment's
assigned endpoints, by e - 1 + (number of assigned endpoints) atoms, so
it weighs 2e - 1 + (number of assigned endpoints).  In the member's own
step count delta there, that is 2 * delta on the lowest segment,
2 * delta + 1 between two assigned elements, 2 * delta + 2 on the highest
segment, and 2 * delta + 1 when no variable is assigned.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import TYPE_CHECKING, Optional

from .errors import InputError
from .fo import (
    Assignment,
    EMPTY_ASSIGNMENT,
    Exists,
    FoAnd,
    FoFormula,
    FoNot,
    FoOr,
    Forall,
    Model,
    RelAtom,
    Structure,
    StructureClass,
    Vocabulary,
    check_comparable,
)
from .formula import Record, _setfield
if TYPE_CHECKING:  # imported where the combination family builds one
    from .props import BitString


# ---------------------------------------------------------------------------
# combination family


def boolcomb_vocabulary(n: int) -> Vocabulary:
    return Vocabulary.make(*((f"P{i}", 1) for i in range(1, n + 1)))


def boolcomb_instances(n: int) -> tuple[StructureClass, StructureClass]:
    """(reference class, adversary class) for n unary predicates: one
    full-combination model against one pair-doubled model per dropped
    trace, all with empty assignments."""
    if not 1 <= n <= 4:
        raise InputError(f"combination family supports n = 1..4, got {n}")
    vocab = boolcomb_vocabulary(n)
    size = 1 << n
    full = Model.make(
        vocab,
        size,
        {
            f"P{i}": [(e,) for e in range(size) if e >> (i - 1) & 1]
            for i in range(1, n + 1)
        },
    )
    adversaries = []
    for s in range(size):
        combos = [r for r in range(size) if r != s]
        rels: dict[str, list[tuple[int]]] = {f"P{i}": [] for i in range(1, n + 1)}
        for k, r in enumerate(combos):
            for i in range(1, n + 1):
                if r >> (i - 1) & 1:
                    rels[f"P{i}"].extend([(2 * k,), (2 * k + 1,)])
        adversaries.append(
            Structure(Model.make(vocab, 2 * (size - 1), rels), EMPTY_ASSIGNMENT)
        )
    left = StructureClass.of([Structure(full, EMPTY_ASSIGNMENT)])
    right = StructureClass.of(adversaries)
    return left, right


def _trace_groups(model: Model) -> dict[int, list[int]]:
    """Elements grouped by predicate trace; requires vocabulary P1..Pn."""
    names = model.vocabulary.names
    n = len(names)
    if names != tuple(f"P{i}" for i in range(1, n + 1)) or n == 0:
        raise InputError("combination models need the vocabulary P1, ..., Pn")
    if any(arity != 1 for _, arity in model.vocabulary.symbols):
        raise InputError("combination models need unary predicates")
    groups: dict[int, list[int]] = {}
    for e in range(model.universe_size):
        trace = 0
        for i in range(1, n + 1):
            if (e,) in model.relation(f"P{i}"):
                trace |= 1 << (i - 1)
        groups.setdefault(trace, []).append(e)
    return groups


def _boolcomb_shape(model: Model) -> tuple[str, Optional[int], dict]:
    """("full", None, {trace: element}) when every trace appears once, or
    ("paired", missing trace, {trace: (preferred, spare)}) when exactly
    one trace is absent and the rest appear twice."""
    n = len(model.vocabulary.symbols)
    groups = _trace_groups(model)
    size = 1 << n
    if len(groups) == size and all(len(g) == 1 for g in groups.values()):
        return "full", None, {r: g[0] for r, g in groups.items()}
    missing = [r for r in range(size) if r not in groups]
    if len(missing) == 1 and all(len(g) == 2 for g in groups.values()):
        return "paired", missing[0], {r: (g[0], g[1]) for r, g in groups.items()}
    raise InputError("model is not from the combination family")


class BoolCombClass(Record):
    """Classification of one adversary member against a reference
    assignment; ``target`` is the shared spare's trace for good_enough.
    ``kind`` is "flawless", "good_enough" or "other"."""

    __slots__ = ("kind", "target")

    def __init__(self, kind: str, target: Optional[BitString] = None) -> None:
        _setfield(self, "kind", kind)
        _setfield(self, "target", target)


def classify_boolcomb(
    member: Structure, s: BitString, alpha: Assignment
) -> BoolCombClass:
    """How well the member's assignment mirrors the reference assignment
    alpha, which lives on the full-combination model (element e(r) has
    trace r, so reference values are read as traces directly)."""
    from .props import BitString
    beta = member.assignment
    if beta.domain != alpha.domain:
        raise InputError("assignments have different domains")
    kind, missing, pairs = _boolcomb_shape(member.model)
    if kind != "paired":
        raise InputError("member model does not pair its traces")
    n = len(member.model.vocabulary.symbols)
    if s.width != n or s.bits != missing:
        raise InputError(
            f"s = {s} does not match the member's missing trace "
            f"{BitString(n, missing)}"
        )
    for j, aval in alpha.items:
        if not 0 <= aval < (1 << n):
            raise InputError(
                f"reference value {aval} for x{j} is not a full-combination element"
            )
    return _classify_boolcomb(beta, n, missing, pairs, alpha)


def _classify_boolcomb(
    beta: Assignment, n: int, missing: int, pairs: dict, alpha: Assignment
) -> BoolCombClass:
    """``classify_boolcomb`` on a member already checked, given its
    assignment beta, its missing trace and its {trace: (preferred, spare)}
    pairs."""
    from .props import BitString
    preferred = {r: pair[0] for r, pair in pairs.items()}
    role = {}
    for r, (b, c) in pairs.items():
        role[b] = (r, False)
        role[c] = (r, True)
    # every variable off the missing trace must take its trace's preferred
    # element; those on it must share one spare, whose trace is a Hamming
    # neighbour of the missing one
    shared: Optional[int] = None
    for j, aval in alpha.items:
        bval = beta.get(j)
        if aval != missing:
            if bval != preferred[aval]:
                return BoolCombClass("other")
            continue
        r, is_spare = role[bval]
        if not is_spare or shared not in (None, r):
            return BoolCombClass("other")
        shared = r
    if shared is None:
        return BoolCombClass("flawless")
    if (missing ^ shared).bit_count() == 1:
        return BoolCombClass("good_enough", BitString(n, shared))
    return BoolCombClass("other")


def measure_M(left: StructureClass, right: StructureClass) -> int:
    """(n + 1) * flawless members + good-enough members of the adversary
    class, classified against the single reference member.  Each member's
    shape is derived once, here; the classes share one domain and the
    reference values are elements of the full model, so the checks of
    ``classify_boolcomb`` hold."""
    check_comparable(left, right)
    if len(left.members) != 1:
        raise InputError("the reference class must have exactly one member")
    ref = left.members[0]
    kind, _, _ = _boolcomb_shape(ref.model)
    if kind != "full":
        raise InputError("the reference member must realize every trace once")
    n = len(ref.model.vocabulary.symbols)
    flawless = good = 0
    for member in right.members:
        shape, missing, pairs = _boolcomb_shape(member.model)
        if shape != "paired":
            raise InputError("adversary members must pair their traces")
        cls = _classify_boolcomb(member.assignment, n, missing, pairs, ref.assignment)
        if cls.kind == "flawless":
            flawless += 1
        elif cls.kind == "good_enough":
            good += 1
    return (n + 1) * flawless + good


def boolcomb_existential_sentence(n: int) -> FoFormula:
    """For every trace, some element realizes it; size (n + 1) * 2**n."""
    if not 1 <= n <= 4:
        raise InputError(f"combination family supports n = 1..4, got {n}")
    blocks = []
    for a in range(1 << n):
        lits: list[FoFormula] = [
            RelAtom(f"P{i}", (0,)) if a >> (i - 1) & 1 else FoNot(RelAtom(f"P{i}", (0,)))
            for i in range(1, n + 1)
        ]
        blocks.append(Exists(0, reduce(FoAnd, lits)))
    return reduce(FoAnd, blocks)


def boolcomb_alternating_sentence(n: int) -> FoFormula:
    """Every trace has a rotated neighbor and a first-bit-flipped neighbor;
    size 8n + 4.  True on the full model, false on every adversary, since
    rotations and first-bit flips generate all traces from any one."""
    if not 1 <= n <= 4:
        raise InputError(f"combination family supports n = 1..4, got {n}")

    def p(i: int, v: int) -> FoFormula:
        return RelAtom(f"P{i}", (v,))

    def iff(a: FoFormula, b: FoFormula) -> FoFormula:
        return FoOr(FoAnd(a, b), FoAnd(FoNot(a), FoNot(b)))

    x, y = 0, 1
    rotated = [iff(p(i, x), p(i % n + 1, y)) for i in range(1, n + 1)]
    flipped = [iff(p(i, x), p(i, y)) for i in range(2, n + 1)]
    flipped.append(iff(p(1, x), FoNot(p(1, y))))
    return FoAnd(
        Forall(x, Exists(y, reduce(FoAnd, rotated))),
        Forall(x, Exists(y, reduce(FoAnd, flipped))),
    )


# ---------------------------------------------------------------------------
# linear-order family


_LINORDER = Vocabulary.make(("<", 2))


def linorder_vocabulary() -> Vocabulary:
    return _LINORDER


def linear_order(k: int) -> Model:
    """The k-element strict linear order on 0 < 1 < ... < k-1."""
    if k < 1:
        raise InputError(f"order size must be >= 1, got {k}")
    return Model.make(
        _LINORDER,
        k,
        {"<": [(i, j) for i in range(k) for j in range(i + 1, k)]},
    )


def linorder_instances(n: int) -> tuple[StructureClass, StructureClass]:
    """(n-element order, (n-1)-element order), empty assignments."""
    if not 2 <= n <= 8:
        raise InputError(f"linear-order family supports n = 2..8, got {n}")
    left = StructureClass.of([Structure(linear_order(n), EMPTY_ASSIGNMENT)])
    right = StructureClass.of([Structure(linear_order(n - 1), EMPTY_ASSIGNMENT)])
    return left, right


def _linear_order_size(model: Model) -> int:
    if model.vocabulary != _LINORDER:
        raise InputError("linear-order models need exactly the vocabulary ('<', 2)")
    k = model.universe_size
    # Model keeps elements in range, so k(k-1)/2 pairs i < j are all of them
    rel = model.relation("<")
    if len(rel) != k * (k - 1) // 2 or any(i >= j for i, j in rel):
        raise InputError("'<' must be the natural strict order on 0..k-1")
    return k


class LinOrderClass(Record):
    """Classification of one adversary member against a reference
    structure: ``kind`` is "nice", "acceptable" or "other".  For a nice
    member, ``defect`` is the index of the single boundary segment whose
    step count disagrees and ``delta`` is the member's own step count
    there."""

    __slots__ = ("kind", "defect", "delta")

    def __init__(
        self, kind: str, defect: Optional[int] = None, delta: Optional[int] = None
    ) -> None:
        _setfield(self, "kind", kind)
        _setfield(self, "defect", defect)
        _setfield(self, "delta", delta)


def classify_linorder(member: Structure, ref: Structure) -> LinOrderClass:
    """Acceptability of the member's assignment: variables sharing a
    reference element must share an image, and the images must be weakly
    increasing with the reference elements (distinct reference elements
    may collapse onto one image).

    Boundary segments run between consecutive assigned elements,
    augmented below by a virtual element one step under the least
    element and above by the actual greatest element; the segment step
    counts d(x, y) = y - x are compared pointwise with the reference."""
    size_b = _linear_order_size(member.model)
    return _classify(member, size_b, ref, _linear_order_size(ref.model))


def _classify(member: Structure, size_b: int, ref: Structure, size_a: int) -> LinOrderClass:
    """``classify_linorder`` on models already checked, of sizes size_b
    (the member's) and size_a (the reference's)."""
    alpha = ref.assignment
    beta = member.assignment
    if alpha.domain != beta.domain:
        raise InputError("assignments have different domains")
    groups: dict[int, int] = {}
    for j, aval in alpha.items:
        bval = beta.get(j)
        prev = groups.get(aval)
        if prev is not None and prev != bval:
            return LinOrderClass("other")
        groups[aval] = bval
    avals = sorted(groups)
    bvals = [groups[a] for a in avals]
    if any(x > y for x, y in zip(bvals, bvals[1:])):
        return LinOrderClass("other")
    aseq = [-1] + avals + [size_a - 1]
    bseq = [-1] + bvals + [size_b - 1]
    defects = [
        i
        for i in range(len(avals) + 1)
        if aseq[i + 1] - aseq[i] != bseq[i + 1] - bseq[i]
    ]
    if len(defects) == 1:
        i = defects[0]
        return LinOrderClass("nice", defect=i, delta=bseq[i + 1] - bseq[i])
    return LinOrderClass("acceptable")


def measure_N(left: StructureClass, right: StructureClass) -> int:
    """Sum over the nice members of the adversary class, classified
    against the single reference member, of the size of the chain formula
    that refutes each: 2 * delta on the lowest segment, 2 * delta + 1
    between two assigned elements or with nothing assigned, and
    2 * delta + 2 on the highest segment."""
    check_comparable(left, right)
    if len(left.members) != 1:
        raise InputError("the reference class must have exactly one member")
    ref = left.members[0]
    size_a = _linear_order_size(ref.model)
    # The chain weighs 2e - 1 + (assigned endpoints), where e counts the
    # reference elements strictly inside the defect segment: e = delta + 1
    # on the highest segment, whose top is the greatest element itself,
    # and e = delta elsewhere.  Only the lowest segment lacks an assigned
    # lower end and only the highest lacks an assigned upper end, so the
    # weight is 2 * delta + 1, plus one on the highest segment and minus
    # one on the lowest (both at once when nothing is assigned).
    top = len({v for _, v in ref.assignment.items})
    total = 0
    for member in right.members:
        cls = _classify(member, _linear_order_size(member.model), ref, size_a)
        if cls.kind == "nice":
            total += 2 * cls.delta + 1 + (cls.defect == top) - (cls.defect == 0)
    return total


def linorder_existential_sentence(n: int) -> FoFormula:
    """An increasing chain of n elements exists; size 2n - 1."""
    if not 2 <= n <= 8:
        raise InputError(f"linear-order family supports n = 2..8, got {n}")

    def chain(k: int) -> FoFormula:
        atom = RelAtom("<", (k - 1, k))
        if k == n - 1:
            return Exists(k, atom)
        return Exists(k, FoAnd(atom, chain(k + 1)))

    return Exists(0, chain(1))


def linorder_log_sentence(n: int) -> FoFormula:
    """At least n elements exist, with quantifier rank exactly
    ceil(log2(n)) + 1: a pivot is chosen so that at least a elements sit
    at or below it and at least b at or above it, a + b = n + 1, and
    interval counts are halved recursively through midpoints."""
    if not 2 <= n <= 8:
        raise InputError(f"linear-order family supports n = 2..8, got {n}")
    fresh = itertools.count(3)

    def at_least(k: int, lo: int, hi: int) -> FoFormula:
        # at least k elements in the closed interval [x_lo, x_hi]
        if k == 2:
            return RelAtom("<", (lo, hi))
        mid = next(fresh)
        return Exists(
            mid, FoAnd(at_least(k // 2 + 1, lo, mid), at_least((k + 1) // 2, mid, hi))
        )

    m = (n - 1).bit_length()  # ceil(log2(n)) for n >= 2
    a = min(n, (1 << (m - 1)) + 1)
    b = n + 1 - a
    low = Exists(1, at_least(a, 1, 0))
    if b == 1:
        return Exists(0, low)
    return Exists(0, FoAnd(low, Exists(2, at_least(b, 0, 2))))
