"""Binary strings, string properties, and propositional formulas.

Strings are fixed-width bit vectors s_1 ... s_n.  A property is a finite
set of strings of one width, stored as a membership mask over all
2**width strings so that set algebra and memo keys are plain ints: bit
e(s) of the mask is set iff s is a member, where e(s) = sum of
s_i * 2**(i-1), i.e. s_1 is the least significant bit.

Propositional formulas are trees of the shared ``formula`` module over
the atoms p_1 ... p_n; their size counts literal occurrences.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Union

from .errors import InputError
from .formula import And, Atom, Formula, Not, Or, Record, _setfield
from .formula import format_formula, is_nnf, size, to_nnf
from .formula import Formula as PropFormula

MAX_WIDTH = 16


class BitString(Record):
    """One binary string; ``bits`` holds e(s), so bit i-1 is s_i."""

    __slots__ = ("width", "bits")

    def __init__(self, width: int, bits: int) -> None:
        if not 1 <= width <= MAX_WIDTH:
            raise InputError(f"string width must be 1..{MAX_WIDTH}, got {width}")
        if bits < 0 or bits >> width:
            raise InputError(f"encoding {bits} out of range for width {width}")
        _setfield(self, "width", width)
        _setfield(self, "bits", bits)

    @classmethod
    def parse(cls, text: str) -> "BitString":
        return cls(len(text), _parse_bits(text))

    def bit(self, i: int) -> int:
        """Value of s_i (1-based)."""
        if not 1 <= i <= self.width:
            raise InputError(f"bit index {i} outside width {self.width}")
        return (self.bits >> (i - 1)) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.width))


def _parse_bits(text: str) -> int:
    """e(s) of the string s_1 s_2 ... as text, after a ``BitString``'s checks."""
    # strip leaves what is not 0 or 1, some of which int() takes ("_", " ")
    if not text or text.strip("01"):
        raise InputError(f"not a nonempty binary string: {text!r}")
    if len(text) > MAX_WIDTH:
        raise InputError(f"string width must be 1..{MAX_WIDTH}, got {len(text)}")
    return int(text[::-1], 2)  # text[0] is s_1, the least significant bit


def _strings_mask(width: int) -> int:
    """Mask with one bit per string of the given width, all set."""
    return (1 << (1 << width)) - 1


class StringProperty(Record):
    """A set of width-``width`` strings as a membership mask."""

    __slots__ = ("width", "mask")

    def __init__(self, width: int, mask: int) -> None:
        if not 1 <= width <= MAX_WIDTH:
            raise InputError(f"property width must be 1..{MAX_WIDTH}, got {width}")
        if mask < 0 or mask >> (1 << width):
            raise InputError(f"membership mask out of range for width {width}")
        _setfield(self, "width", width)
        _setfield(self, "mask", mask)

    @classmethod
    def from_strings(cls, width: int, strings: Iterable[Union[str, BitString]]) -> "StringProperty":
        mask = 0
        for s in strings:
            text = str(s) if isinstance(s, BitString) else s  # s_1 s_2 ...
            bits = _parse_bits(text)
            if len(text) != width:
                raise InputError(f"string {text} has width {len(text)}, expected {width}")
            mask |= 1 << bits
        return cls(width, mask)

    @classmethod
    def of(cls, *strings: str) -> "StringProperty":
        """Build from literal strings, inferring the width from the first."""
        if not strings:
            raise InputError("cannot infer the width of an empty property")
        return cls.from_strings(len(strings[0]), strings)

    def strings(self) -> tuple[BitString, ...]:
        """Members in ascending encoding order."""
        return tuple(
            BitString(self.width, e)
            for e in range(1 << self.width)
            if self.mask >> e & 1
        )

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, s: BitString) -> bool:
        return s.width == self.width and bool(self.mask >> s.bits & 1)

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __str__(self) -> str:
        return "{" + ", ".join(str(s) for s in self.strings()) + "}"


# ---------------------------------------------------------------------------
# formulas


class Var(Atom):
    __slots__ = ("index",)  # 1-based

    def __init__(self, index: int) -> None:
        if not 1 <= index <= MAX_WIDTH:
            raise InputError(f"variable index must be 1..{MAX_WIDTH}, got {index}")
        _setfield(self, "index", index)

    def __str__(self) -> str:
        return f"p{self.index}"


class Literal(Record):
    """Variable p_var or its negation."""

    __slots__ = ("var", "positive")

    def __init__(self, var: int, positive: bool) -> None:
        _setfield(self, "var", var)
        _setfield(self, "positive", positive)

    def formula(self) -> Formula:
        return Var(self.var) if self.positive else Not(Var(self.var))

    def holds_on(self, s: BitString) -> bool:
        return (s.bit(self.var) == 1) == self.positive

    def __str__(self) -> str:
        return f"p{self.var}" if self.positive else f"!p{self.var}"


def evaluate(f: Formula, s: BitString) -> bool:
    return bool(truth_table(f, s.width) >> s.bits & 1)


@lru_cache(maxsize=None)
def var_mask(width: int, i: int) -> int:
    """Membership mask of the strings with s_i = 1."""
    if not 1 <= i <= width:
        raise InputError(f"variable p{i} exceeds width {width}")
    # s_i = 1 on the upper h strings of every run of 2h, for h = 2**(i - 1):
    # the full mask over 2**(2h) - 1 puts a one at the start of every run
    h = 1 << (i - 1)
    return _strings_mask(width) // ((1 << 2 * h) - 1) * (((1 << h) - 1) << h)


def truth_table(f: Formula, width: int) -> int:
    """Membership mask of the strings of the given width satisfying f."""
    full = _strings_mask(width)
    if isinstance(f, Var):
        return var_mask(width, f.index)
    if isinstance(f, Not):
        return full ^ truth_table(f.child, width)
    if isinstance(f, And):
        return truth_table(f.left, width) & truth_table(f.right, width)
    if isinstance(f, Or):
        return truth_table(f.left, width) | truth_table(f.right, width)
    raise InputError(f"not a formula node: {f!r}")


def check_same_width(left: StringProperty, right: StringProperty) -> None:
    """Two properties can be compared only at one width; raises InputError
    otherwise."""
    if left.width != right.width:
        raise InputError(f"width mismatch: {left.width} vs {right.width}")


def separates(f: Formula, left: StringProperty, right: StringProperty) -> bool:
    """True iff f holds on every string of ``left`` and none of ``right``."""
    check_same_width(left, right)
    tt = truth_table(f, left.width)
    return tt & left.mask == left.mask and tt & right.mask == 0


# ---------------------------------------------------------------------------
# text format: p1, !f, (f & g), (f | g), as ``format_formula`` prints it

_TOKEN = re.compile(r"\s*(p\d+|[!&|()])")


def parse_formula(text: str) -> Formula:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise InputError(f"unexpected character at {text[pos:].strip()[:10]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.reverse()  # pop() from the end

    def take() -> str:
        if not tokens:
            raise InputError("unexpected end of formula")
        return tokens.pop()

    def formula() -> Formula:
        tok = take()
        if tok.startswith("p"):
            return Var(int(tok[1:]))
        if tok == "!":
            return Not(formula())
        if tok == "(":
            left = formula()
            op = take()
            if op not in "&|":
                raise InputError(f"expected '&' or '|', got {op!r}")
            right = formula()
            close = take()
            if close != ")":
                raise InputError(f"expected ')', got {close!r}")
            return And(left, right) if op == "&" else Or(left, right)
        raise InputError(f"unexpected token {tok!r}")

    f = formula()
    if tokens:
        raise InputError(f"trailing input after formula: {tokens[-1]!r}")
    return f
