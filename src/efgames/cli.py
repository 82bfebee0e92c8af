"""Command line front end.

Exit codes: 0 success, 1 malformed input, 2 a resource cap was hit,
3 a precondition was violated.  ``--json`` swaps the human-readable
output for a JSON object on stdout.

The handlers read every solver name through the package (``ef.PropGame``),
which imports a submodule on its first use, so building the parser loads
no solver and a command loads only the solver it runs.

File formats:

* property pair: {"width": 2, "S": ["00", "11"], "R": ["01"]}
* structure class: a JSON list of structures, each
  {"vocabulary": [["<", 2]], "universe": 3,
   "relations": {"<": [[0, 1], [0, 2], [1, 2]]}, "assignment": {"0": 1}}
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Optional, Sequence

import efgames as ef

from .errors import (
    DEFAULT_CAP_CHOICE_FUNCTIONS,
    DEFAULT_CAP_CLASS_SIZE,
    DEFAULT_CAP_EXACT_STRINGS,
    DEFAULT_CAP_POSITIONS,
    DEFAULT_CAP_STRINGS,
    ContractError,
    InputError,
    ResourceCapError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        # usage mistakes are input errors (exit 1), not resource caps (exit 2)
        raise InputError(message)


# ---------------------------------------------------------------------------
# input helpers


def _load_json(path: str) -> object:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _load_pair(path: str) -> tuple[ef.StringProperty, ef.StringProperty]:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: a pair file must be a JSON object")
    width = obj.get("width")
    if not isinstance(width, int) or isinstance(width, bool):
        raise InputError(f"{path}: 'width' must be an integer")
    sides = []
    for key in ("S", "R"):
        strings = obj.get(key)
        if not isinstance(strings, list) or not all(
            isinstance(s, str) for s in strings
        ):
            raise InputError(f"{path}: {key!r} must be a list of binary strings")
        sides.append(ef.StringProperty.from_strings(width, strings))
    return sides[0], sides[1]


def _load_class(path: str) -> ef.StructureClass:
    return ef.class_from_json(_load_json(path))


# ---------------------------------------------------------------------------
# repro experiments


class ReproReport:
    """One benchmark run: the certificate bound must never exceed the
    construction size, and an exact minimal size must sit between them.

    ``proven_interval`` is [exact minimal size if the search found it,
    else the certificate bound; construction size]: the minimal size lies
    in it whether or not the search ran to its end."""

    __slots__ = (
        "experiment", "n", "certificate_bound", "construction_size",
        "exact_minsize", "proven_interval", "runtime_ms", "cap_hit",
    )

    def __init__(
        self,
        experiment: str,
        n: int,
        certificate_bound: int,
        construction_size: int,
        exact_minsize: Optional[int],
        runtime_ms: int,
        cap_hit: Optional[str] = None,
    ) -> None:
        if certificate_bound > construction_size:
            raise ContractError(
                f"certificate {certificate_bound} exceeds the construction "
                f"size {construction_size}"
            )
        if exact_minsize is not None and not (
            certificate_bound <= exact_minsize <= construction_size
        ):
            raise ContractError(
                f"exact size {exact_minsize} falls outside "
                f"[{certificate_bound}, {construction_size}]"
            )
        self.experiment = experiment
        self.n = n
        self.certificate_bound = certificate_bound
        self.construction_size = construction_size
        self.exact_minsize = exact_minsize
        low = certificate_bound if exact_minsize is None else exact_minsize
        self.proven_interval = (low, construction_size)
        self.runtime_ms = runtime_ms
        self.cap_hit = cap_hit

    def payload(self) -> dict:
        """The JSON report: every field, by name, in declaration order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def text(self) -> str:
        exact = str(self.exact_minsize)
        if self.exact_minsize is None:
            exact = "not computed" + (f" ({self.cap_hit})" if self.cap_hit else "")
        low, high = self.proven_interval
        return (
            f"experiment: {self.experiment}\n"
            f"n: {self.n}\n"
            f"certificate bound: {self.certificate_bound}\n"
            f"construction size: {self.construction_size}\n"
            f"exact minimal size: {exact}\n"
            f"proven interval: [{low}, {high}]\n"
            f"runtime: {self.runtime_ms} ms"
        )


def repro_parity(n: int, **caps: int) -> ReproReport:
    """Certificate vs. construction vs. (when within the PropGame caps)
    exact minimal size for even-parity against odd-parity of width n."""
    # the names are read before the clock starts, so that the runtime leaves
    # out the lazy imports of their modules
    balanced, instances, density_bound, game = (
        ef.parity_balanced, ef.parity_property, ef.density_lower_bound, ef.PropGame
    )
    start = time.perf_counter()
    # the balanced formula is never larger than the DNF, at every width
    # both accept
    construction = balanced(n)
    left, right = instances(n)
    certificate = density_bound(left, right)
    if not ef.separates(construction, left, right):
        raise ContractError(
            f"parity construction of size {ef.size(construction)} does not separate "
            f"the instances"
        )
    exact = cap_hit = None
    try:
        exact = game(n, **caps).minsize(left, right)
    except ResourceCapError as exc:
        cap_hit = str(exc)
    elapsed = int((time.perf_counter() - start) * 1000)
    return ReproReport(
        "parity", n, certificate, ef.size(construction), exact, elapsed, cap_hit
    )


def _check_fo(
    f: Optional[ef.FoFormula],
    left: ef.StructureClass,
    right: ef.StructureClass,
    what: str,
    mode: ef.FoMode,
    rank: Optional[int] = None,
) -> None:
    """Raise ContractError unless f, the answer named by what, separates the
    classes, fits the rank when one is given, and, in existential mode, is
    existential."""
    if f is None:
        raise ContractError(f"no formula of size <= {rank} was synthesized")
    if not (ef.fo_free_vars(f) <= left.domain and ef.fo_separates(f, left, right)):
        raise ContractError(f"{what} {ef.format_fo(f)} does not separate the instances")
    if rank is not None and ef.fo_size(f) > rank:
        raise ContractError(f"{what} has size {ef.fo_size(f)} > rank {rank}")
    if mode is ef.FoMode.EXISTENTIAL and not ef.is_existential(f):
        raise ContractError(f"{what} {ef.format_fo(f)} is not existential")


def repro_fo(experiment: str, n: int, **caps: int) -> ReproReport:
    """A first-order family, boolcomb or linorder: its measure certificate
    (M or N) vs. its existential construction sentence vs. (when within
    the FoGame caps) the exact existential minimal size."""
    # the names are read before the clock starts, so that the runtime leaves
    # out the lazy imports of their modules
    if experiment == "boolcomb":
        instances, measure, existential = (
            ef.boolcomb_instances, ef.measure_M, ef.boolcomb_existential_sentence
        )
    else:
        instances, measure, existential = (
            ef.linorder_instances, ef.measure_N, ef.linorder_existential_sentence
        )
    game = ef.FoGame
    start = time.perf_counter()
    left, right = instances(n)
    certificate = measure(left, right)
    sentence = existential(n)
    _check_fo(sentence, left, right, "construction sentence", ef.FoMode.EXISTENTIAL)
    construction = ef.fo_size(sentence)
    exact = cap_hit = None
    # boolcomb searches n = 1 only: at n = 2 the search runs 6 to 9 ms before
    # the class-size cap stops it, where a linear-order query takes about 1 ms
    if experiment == "linorder" or n == 1:
        # the checked sentence bounds the minimal size by its own size, so
        # only the smaller ranks need refuting
        try:
            smaller = game(**caps).minsize(
                left, right, ef.FoMode.EXISTENTIAL, w_max=construction - 1
            )
            exact = construction if smaller is None else smaller
        except ResourceCapError as exc:
            cap_hit = str(exc)
    elapsed = int((time.perf_counter() - start) * 1000)
    return ReproReport(
        experiment, n, certificate, construction, exact, elapsed, cap_hit
    )


# ---------------------------------------------------------------------------
# handlers: each returns (text, payload)


def _cmd_prop_minsize(args) -> tuple[str, dict]:
    left, right = _load_pair(args.pair)
    k = ef.PropGame(left.width, **_caps(args)).minsize(left, right)
    if k is None:
        return "inseparable", {"result": "inseparable"}
    # density is defined only when both sides are nonempty
    if not (left.is_empty or right.is_empty):
        bound = ef.density_lower_bound(left, right)
        if bound > k:
            raise ContractError(
                f"minimal size {k} is below the density lower bound {bound}"
            )
    return f"minimum separating size: {k}", {"result": "size", "size": k}


def _cmd_prop_winner(args) -> tuple[str, dict]:
    left, right = _load_pair(args.pair)
    game = ef.PropGame(left.width, **_caps(args))
    who = game.winner(ef.PropPosition(args.rank, left, right), ef.GameMode(args.mode))
    return (
        f"player {who.value} wins at rank {args.rank} ({args.mode} mode)",
        {"winner": who.value, "rank": args.rank, "mode": args.mode},
    )


def _cmd_prop_synth(args) -> tuple[str, dict]:
    left, right = _load_pair(args.pair)
    f = ef.PropGame(left.width, **_caps(args)).synthesize(left, right, args.rank)
    if f is None:
        return (
            f"no separating formula of size <= {args.rank}",
            {"formula": None, "rank": args.rank},
        )
    if not ef.separates(f, left, right):
        raise ContractError(
            f"synthesized formula {ef.format_formula(f)} does not separate the pair"
        )
    if ef.size(f) > args.rank:
        raise ContractError(
            f"synthesized formula has size {ef.size(f)} > rank {args.rank}"
        )
    text = ef.format_formula(f)
    return text, {"formula": text, "size": ef.size(f)}


def _cmd_prop_density(args) -> tuple[str, dict]:
    left, right = _load_pair(args.pair)
    pair = ef.density(left, right)
    bound = ef.density_lower_bound(left, right)
    text = (
        f"boundary edges: {pair.edge_count}\n"
        f"left density: {pair.left}\n"
        f"right density: {pair.right}\n"
        f"size lower bound: {bound}"
    )
    return text, {
        "edges": pair.edge_count,
        "left_density": str(pair.left),
        "right_density": str(pair.right),
        "lower_bound": bound,
    }


def _cmd_prop_parity(args) -> tuple[str, dict]:
    f = ef.parity_dnf(args.n) if args.form == "dnf" else ef.parity_balanced(args.n)
    text = ef.format_formula(f)
    return f"{text}\nsize: {ef.size(f)}", {"formula": text, "size": ef.size(f)}


def _cmd_oracle_table(args) -> tuple[str, dict]:
    table = ef.min_size_table(args.n)
    counts: dict[int, int] = {}
    for s in table.values():
        counts[s] = counts.get(s, 0) + 1
    lines = [f"functions of {args.n} variables: {len(table)}"]
    for s in sorted(counts):
        lines.append(f"  minimal size {s}: {counts[s]}")
    return "\n".join(lines), {
        "functions": len(table),
        "counts": {str(s): c for s, c in sorted(counts.items())},
    }


def _cmd_oracle_minsize(args) -> tuple[str, dict]:
    left, right = _load_pair(args.pair)
    k = ef.oracle_minsize(left, right)
    if k is None:
        return "inseparable", {"result": "inseparable"}
    return f"minimum separating size: {k}", {"result": "size", "size": k}


def _cmd_oracle_count(args) -> tuple[str, dict]:
    c = ef.count_functions_up_to(args.m, args.n)
    bound = 2**args.m * (args.n + 2) ** (2 * args.m)
    return (
        f"functions of {args.n} variables with minimal size <= {args.m}: {c}\n"
        f"counting bound: {bound}",
        {"count": c, "bound": bound},
    )


def _cmd_fo_winner(args) -> tuple[str, dict]:
    left, right = _load_class(args.left), _load_class(args.right)
    who = ef.FoGame(**_caps(args)).winner(args.rank, left, right, ef.FoMode(args.mode))
    return (
        f"player {who.value} wins at rank {args.rank} ({args.mode} mode)",
        {"winner": who.value, "rank": args.rank, "mode": args.mode},
    )


def _cmd_fo_minsize(args) -> tuple[str, dict]:
    left, right = _load_class(args.left), _load_class(args.right)
    game, mode = ef.FoGame(**_caps(args)), ef.FoMode(args.mode)
    k = game.minsize(left, right, mode, args.wmax)
    if k is None and not set(left.members).isdisjoint(right.members):
        return "inseparable", {"result": "inseparable"}
    if k is None:
        return (
            f"no separating formula of size <= {args.wmax}",
            {"result": "unknown", "searched_up_to": args.wmax},
        )
    f = game.synthesize(left, right, k, mode)
    _check_fo(f, left, right, "synthesized formula", mode, k)
    return f"minimum separating size: {k}", {"result": "size", "size": k}


def _cmd_fo_synth(args) -> tuple[str, dict]:
    left, right = _load_class(args.left), _load_class(args.right)
    mode = ef.FoMode(args.mode)
    f = ef.FoGame(**_caps(args)).synthesize(left, right, args.rank, mode)
    if f is None:
        return (
            f"no separating formula of size <= {args.rank}",
            {"formula": None, "rank": args.rank},
        )
    _check_fo(f, left, right, "synthesized formula", mode, args.rank)
    text = ef.format_fo(f)
    return text, {"formula": text, "size": ef.fo_size(f)}


def _cmd_fo_measure(args) -> tuple[str, dict]:
    # positionals fill left first, so a right file means both were given
    if args.n is not None and args.left is None:
        boolcomb = args.family == "boolcomb"
        maker = ef.boolcomb_instances if boolcomb else ef.linorder_instances
        left, right = maker(args.n)
    elif args.n is None and args.right is not None:
        left, right = _load_class(args.left), _load_class(args.right)
    else:
        raise InputError("measure needs --n or two class files")
    if args.family == "boolcomb":
        name, value = "M", ef.measure_M(left, right)
    else:
        name, value = "N", ef.measure_N(left, right)
    # the measure claims a lower bound on the existential minimal size, so
    # no smaller rank may win; a cap that stops the search leaves it unchecked
    text = f"measure {name}: {value}"
    checked = True
    if value >= 2:
        try:
            smaller = ef.FoGame(**_caps(args)).minsize(
                left, right, ef.FoMode.EXISTENTIAL, w_max=value - 1
            )
        except ResourceCapError as exc:
            smaller, checked = None, False
            text += f" (unchecked: {exc})"
        if smaller is not None:
            raise ContractError(
                f"measure {name} is {value}, but an existential formula of "
                f"size {smaller} separates the classes"
            )
    return text, {"measure": name, "value": value, "checked": checked}


def _cmd_repro(args) -> tuple[str, dict]:
    if args.experiment == "parity":
        report = repro_parity(args.n, **_caps(args))
    else:
        report = repro_fo(args.experiment, args.n, **_caps(args))
    return report.text(), report.payload()


# ---------------------------------------------------------------------------
# parser


# Each solver's caps as (flag, default, help).  A flag's dest is the keyword
# the solver takes, so _caps(args) hands the parsed values straight over.
_PROP_CAPS = (
    ("--cap-strings", DEFAULT_CAP_STRINGS,
     "largest |S| + |R| the size table fills"),
)
# only exact mode reads --cap-exact-strings
_PROP_EXACT_CAPS = _PROP_CAPS + (
    ("--cap-exact-strings", DEFAULT_CAP_EXACT_STRINGS,
     "largest |S| + |R| exact mode accepts"),
)
_FO_CAPS = (
    ("--cap-positions", DEFAULT_CAP_POSITIONS,
     "largest number of game positions to visit"),
    ("--cap-choice-functions", DEFAULT_CAP_CHOICE_FUNCTIONS,
     "largest choice-function family to enumerate"),
    ("--cap-class-size", DEFAULT_CAP_CLASS_SIZE,
     "largest class a branching extension may reach"),
)


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type for ints of at least low, so that a value below it
    is a usage error (exit 1) that names its flag."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse says "invalid int value" for non-ints
    return parse


_POSITIVE, _NONNEGATIVE = _at_least(1), _at_least(0)


def _add_caps(p: argparse.ArgumentParser, caps: tuple) -> None:
    for flag, default, what in caps:
        p.add_argument(
            flag, type=_NONNEGATIVE, default=default,
            help=f"{what} (default %(default)s)",
        )


def _caps(args: argparse.Namespace) -> dict[str, int]:
    """The parsed cap flags, keyed by the solver keyword each one sets."""
    return {k: v for k, v in vars(args).items() if k.startswith("cap_")}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="efgames",
        description="Exact formula-size games over strings and finite structures.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON on stdout")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    prop = commands.add_parser("prop", help="string-property games")
    psub = prop.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = psub.add_parser("minsize", help="minimal separating formula size")
    p.add_argument("pair", help="pair file {width, S, R}")
    _add_caps(p, _PROP_CAPS)
    p.set_defaults(handler=_cmd_prop_minsize)

    p = psub.add_parser("winner", help="who wins the separation game")
    p.add_argument("pair")
    p.add_argument("--rank", type=_POSITIVE, required=True)
    p.add_argument("--mode", choices=["exact", "reduced"], default="reduced")
    _add_caps(p, _PROP_EXACT_CAPS)
    p.set_defaults(handler=_cmd_prop_winner)

    p = psub.add_parser("synth", help="synthesize a separating formula")
    p.add_argument("pair")
    p.add_argument("--rank", type=_POSITIVE, required=True)
    _add_caps(p, _PROP_CAPS)
    p.set_defaults(handler=_cmd_prop_synth)

    p = psub.add_parser("density", help="boundary density certificate")
    p.add_argument("pair")
    p.set_defaults(handler=_cmd_prop_density)

    p = psub.add_parser("parity", help="explicit parity formulas")
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.add_argument("--form", choices=["dnf", "balanced"], default="balanced")
    p.set_defaults(handler=_cmd_prop_parity)

    oracle = commands.add_parser("oracle", help="brute-force baselines")
    osub = oracle.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = osub.add_parser("table", help="minimal-size census of all functions")
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.set_defaults(handler=_cmd_oracle_table)

    p = osub.add_parser("minsize", help="minimal size via truth tables")
    p.add_argument("pair")
    p.set_defaults(handler=_cmd_oracle_minsize)

    p = osub.add_parser("count", help="how many functions have size <= m")
    p.add_argument("--m", type=_NONNEGATIVE, required=True)
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.set_defaults(handler=_cmd_oracle_count)

    fo = commands.add_parser("fo", help="structure-class games")
    fsub = fo.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = fsub.add_parser("winner", help="who wins the class-separation game")
    p.add_argument("left", help="class file (JSON list of structures)")
    p.add_argument("right")
    p.add_argument("--rank", type=_POSITIVE, required=True)
    p.add_argument("--mode", choices=["full", "existential"], default="full")
    _add_caps(p, _FO_CAPS)
    p.set_defaults(handler=_cmd_fo_winner)

    p = fsub.add_parser("minsize", help="minimal separating formula size")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--wmax", type=_POSITIVE, default=8)
    p.add_argument("--mode", choices=["full", "existential"], default="full")
    _add_caps(p, _FO_CAPS)
    p.set_defaults(handler=_cmd_fo_minsize)

    p = fsub.add_parser("synth", help="synthesize a separating formula")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--rank", type=_POSITIVE, required=True)
    p.add_argument("--mode", choices=["full", "existential"], default="full")
    _add_caps(p, _FO_CAPS)
    p.set_defaults(handler=_cmd_fo_synth)

    p = fsub.add_parser("measure", help="counting measure of a family instance")
    p.add_argument("--family", choices=["boolcomb", "linorder"], required=True)
    p.add_argument("--n", type=_POSITIVE)
    p.add_argument("left", nargs="?")
    p.add_argument("right", nargs="?")
    _add_caps(p, _FO_CAPS)
    p.set_defaults(handler=_cmd_fo_measure)

    repro = commands.add_parser("repro", help="benchmark experiments")
    rsub = repro.add_subparsers(dest="experiment", required=True, parser_class=_Parser)

    p = rsub.add_parser("parity", help="parity: density bound vs. construction")
    p.add_argument("--n", type=_POSITIVE, required=True)
    _add_caps(p, _PROP_CAPS)
    p.set_defaults(handler=_cmd_repro)

    p = rsub.add_parser("boolcomb", help="combination family: M bound vs. sentence")
    p.add_argument("--n", type=_POSITIVE, required=True)
    _add_caps(p, _FO_CAPS)
    p.set_defaults(handler=_cmd_repro)

    p = rsub.add_parser("linorder", help="linear orders: N bound vs. sentence")
    p.add_argument("--n", type=_POSITIVE, required=True)
    _add_caps(p, _FO_CAPS)
    p.set_defaults(handler=_cmd_repro)

    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use: building it costs far
    more than a small query."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    # accept --json anywhere on the line, including after a subcommand
    words = list(sys.argv[1:] if argv is None else argv)
    as_json = "--json" in words
    words = [w for w in words if w != "--json"]
    try:
        args = parser.parse_args(words)
        args.json = as_json
        text, payload = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the searches recurse deeper with the rank, so a rank far past the
        # answer can outrun the stack before any cap is reached
        print(
            "resource cap: the search went deeper than the interpreter's recursion "
            f"limit {sys.getrecursionlimit()}; try a lower rank",
            file=sys.stderr,
        )
        return 2
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(payload, indent=2) if args.json else text)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
