import argparse
import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import efgames
from efgames import (
    Assignment,
    ContractError,
    EqAtom,
    Exists,
    FoAnd,
    FoGame,
    FoNot,
    Forall,
    RelAtom,
    Structure,
    StructureClass,
    class_to_json,
    linear_order,
    linorder_instances,
    parity_property,
    parse_formula,
    PropGame,
    separates,
    size,
    StringProperty,
    Var,
    boolcomb_instances,
)
from efgames import cli
from efgames.cli import ReproReport, run


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def parity_pair(tmp_path):
    return write_json(
        tmp_path, "parity.json", {"width": 2, "S": ["00", "11"], "R": ["01", "10"]}
    )


@pytest.fixture
def order_classes(tmp_path):
    left, right = linorder_instances(2)
    return (
        write_json(tmp_path, "left.json", class_to_json(left)),
        write_json(tmp_path, "right.json", class_to_json(right)),
    )


def test_prop_minsize(parity_pair):
    code, out, _ = run_cli("prop", "minsize", parity_pair)
    assert code == 0
    assert out.strip() == "minimum separating size: 4"


def test_json_flag_is_position_independent(parity_pair):
    for argv in (
        ("--json", "prop", "minsize", parity_pair),
        ("prop", "minsize", parity_pair, "--json"),
        ("prop", "--json", "minsize", parity_pair),
    ):
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert json.loads(out) == {"result": "size", "size": 4}


def test_prop_minsize_inseparable(tmp_path):
    pair = write_json(
        tmp_path, "overlap.json", {"width": 2, "S": ["01"], "R": ["01", "11"]}
    )
    code, out, _ = run_cli("--json", "prop", "minsize", pair)
    assert code == 0
    assert json.loads(out) == {"result": "inseparable"}


def test_prop_minsize_with_an_empty_side(tmp_path):
    for name, sides, k in (
        ("s_empty.json", {"S": [], "R": ["00"]}, 1),
        ("r_empty.json", {"S": ["00", "01", "10", "11"], "R": []}, 2),
        ("both_empty.json", {"S": [], "R": []}, 1),
    ):
        pair = write_json(tmp_path, name, {"width": 2, **sides})
        code, out, _ = run_cli("prop", "minsize", pair)
        assert code == 0
        assert out.strip() == f"minimum separating size: {k}"


def test_prop_answers_past_width_four(tmp_path):
    # p4 xor p5 on width 5: no literal separates it, so the size table is
    # filled, and the density bound 4 proves the size minimal
    pair = write_json(
        tmp_path, "xor.json", {"width": 5, "S": ["00000", "00011"], "R": ["00010", "00001"]}
    )
    code, out, _ = run_cli("--json", "prop", "minsize", pair)
    assert code == 0
    assert json.loads(out) == {"result": "size", "size": 4}
    code, out, _ = run_cli("--json", "prop", "synth", pair, "--rank", "4")
    assert code == 0
    f = parse_formula(json.loads(out)["formula"])
    s = StringProperty.from_strings(5, ["00000", "00011"])
    r = StringProperty.from_strings(5, ["00010", "00001"])
    assert separates(f, s, r) and size(f) == 4


def test_prop_winner_both_modes(parity_pair):
    for mode in ("reduced", "exact"):
        code, out, _ = run_cli(
            "prop", "winner", parity_pair, "--rank", "4", "--mode", mode
        )
        assert code == 0
        assert out.strip() == f"player I wins at rank 4 ({mode} mode)"
        code, out, _ = run_cli(
            "--json", "prop", "winner", parity_pair, "--rank", "3", "--mode", mode
        )
        assert json.loads(out) == {"winner": "II", "rank": 3, "mode": mode}


def test_prop_synth_round_trip(parity_pair):
    code, out, _ = run_cli("--json", "prop", "synth", parity_pair, "--rank", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 4
    f = parse_formula(payload["formula"])
    assert size(f) == 4
    assert separates(
        f,
        StringProperty.from_strings(2, ["00", "11"]),
        StringProperty.from_strings(2, ["01", "10"]),
    )


def test_prop_synth_below_minimum(parity_pair):
    code, out, _ = run_cli("--json", "prop", "synth", parity_pair, "--rank", "3")
    assert code == 0
    assert json.loads(out) == {"formula": None, "rank": 3}


@pytest.mark.parametrize(
    "sides, text",
    [(([], ["0", "1"]), "(p1 & !p1)"), ((["0", "1"], []), "(p1 | !p1)")],
)
def test_prop_synth_builds_the_constants(tmp_path, sides, text):
    # one side empty and the other holding every string: no literal
    # separates, so the formula is a constant, which takes two leaves
    pair = write_json(tmp_path, "pair.json", {"width": 1, "S": sides[0], "R": sides[1]})
    code, out, _ = run_cli("prop", "synth", pair, "--rank", "2")
    assert code == 0
    assert out.strip() == text
    code, out, _ = run_cli("--json", "prop", "synth", pair, "--rank", "1")
    assert code == 0
    assert json.loads(out) == {"formula": None, "rank": 1}


def test_prop_density(parity_pair):
    code, out, _ = run_cli("--json", "prop", "density", parity_pair)
    assert code == 0
    assert json.loads(out) == {
        "edges": 4,
        "left_density": "2",
        "right_density": "2",
        "lower_bound": 4,
    }


def test_prop_parity_forms():
    code, out, _ = run_cli("--json", "prop", "parity", "--n", "3", "--form", "dnf")
    assert code == 0
    dnf = json.loads(out)
    code, out, _ = run_cli("--json", "prop", "parity", "--n", "3")
    balanced = json.loads(out)
    assert dnf["size"] == 12
    assert balanced["size"] == 10
    assert parse_formula(dnf["formula"]) != parse_formula(balanced["formula"])


def test_oracle_table():
    code, out, _ = run_cli("--json", "oracle", "table", "--n", "2")
    assert code == 0
    assert json.loads(out) == {
        "functions": 16,
        "counts": {"1": 4, "2": 10, "4": 2},
    }


def test_oracle_minsize(parity_pair):
    code, out, _ = run_cli("oracle", "minsize", parity_pair)
    assert code == 0
    assert out.strip() == "minimum separating size: 4"


def test_oracle_minsize_of_an_overlapping_pair(tmp_path):
    pair = write_json(tmp_path, "pair.json", {"width": 2, "S": ["00"], "R": ["00", "11"]})
    code, out, _ = run_cli("oracle", "minsize", pair)
    assert code == 0
    assert out.strip() == "inseparable"
    code, out, _ = run_cli("--json", "oracle", "minsize", pair)
    assert code == 0
    assert json.loads(out) == {"result": "inseparable"}


def test_oracle_count():
    code, out, _ = run_cli("--json", "oracle", "count", "--m", "1", "--n", "2")
    assert code == 0
    assert json.loads(out) == {"count": 4, "bound": 32}


def test_fo_winner(order_classes):
    left, right = order_classes
    code, out, _ = run_cli(
        "fo", "winner", left, right, "--rank", "3", "--mode", "existential"
    )
    assert code == 0
    assert out.strip() == "player I wins at rank 3 (existential mode)"
    code, out, _ = run_cli("--json", "fo", "winner", left, right, "--rank", "2")
    assert json.loads(out) == {"winner": "II", "rank": 2, "mode": "full"}


def test_fo_minsize(order_classes):
    left, right = order_classes
    code, out, _ = run_cli("--json", "fo", "minsize", left, right)
    assert code == 0
    assert json.loads(out) == {"result": "size", "size": 3}
    code, out, _ = run_cli("--json", "fo", "minsize", left, right, "--wmax", "2")
    assert json.loads(out) == {"result": "unknown", "searched_up_to": 2}


def test_fo_minsize_of_classes_that_share_a_structure(tmp_path):
    member = class_to_json(linorder_instances(2)[0])[:1]
    one = write_json(tmp_path, "one.json", member)
    twice = write_json(tmp_path, "twice.json", member * 2)
    for extra in ((), ("--mode", "existential"), ("--wmax", "3")):
        code, out, _ = run_cli("fo", "minsize", twice, one, *extra)
        assert (code, out.strip()) == (0, "inseparable"), extra
        code, out, _ = run_cli("--json", "fo", "minsize", twice, one, *extra)
        assert (code, json.loads(out)) == (0, {"result": "inseparable"}), extra



def test_fo_synth_of_classes_that_share_a_structure(tmp_path):
    two, three = (class_to_json(linorder_instances(n)[0]) for n in (2, 3))
    one = write_json(tmp_path, "one.json", two)
    both = write_json(tmp_path, "both.json", two + three)
    for extra in (("--rank", "4"), ("--rank", "5"), ("--rank", "5", "--mode", "existential")):
        code, out, _ = run_cli("fo", "synth", one, both, *extra)
        assert (code, out.strip()) == (0, f"no separating formula of size <= {extra[1]}"), extra

def test_fo_synth_is_deterministic(order_classes):
    left, right = order_classes
    argv = ("--json", "fo", "synth", left, right, "--rank", "3", "--mode", "existential")
    code, first, _ = run_cli(*argv)
    assert code == 0
    payload = json.loads(first)
    assert payload["size"] <= 3
    assert payload["formula"]
    _, second, _ = run_cli(*argv)
    assert first == second


def test_fo_measure_families(order_classes):
    # n = 5 and boolcomb n = 2 are past the default class-size cap, so
    # their values print unchecked
    code, out, _ = run_cli("fo", "measure", "--family", "linorder", "--n", "5")
    assert code == 0
    assert out.startswith("measure N: 9 (unchecked: ")
    assert "(--cap-class-size)" in out
    code, out, _ = run_cli("--json", "fo", "measure", "--family", "boolcomb", "--n", "2")
    assert json.loads(out) == {"measure": "M", "value": 12, "checked": False}
    left, right = order_classes
    code, out, _ = run_cli("fo", "measure", "--family", "linorder", left, right)
    assert out.strip() == "measure N: 3"
    code, out, _ = run_cli("--json", "fo", "measure", "--family", "linorder", left, right)
    assert json.loads(out) == {"measure": "N", "value": 3, "checked": True}


def test_fo_measure_prints_the_chain_weight(tmp_path):
    # 2-order with x0=1 against 1-order with x0=0: "some y lies below x0"
    # separates at size 2, so N may claim no more.
    left = StructureClass.of([Structure(linear_order(2), Assignment.make({0: 1}))])
    right = StructureClass.of([Structure(linear_order(1), Assignment.make({0: 0}))])
    code, out, _ = run_cli(
        "fo",
        "measure",
        "--family",
        "linorder",
        write_json(tmp_path, "left.json", class_to_json(left)),
        write_json(tmp_path, "right.json", class_to_json(right)),
    )
    assert code == 0
    assert out.strip() == "measure N: 2"


@pytest.mark.parametrize("n, value", [(2, 3), (3, 5)])
def test_fo_measure_is_refuted_below_its_value(n, value):
    # N is 2n - 1 at the roots; the solver refutes every smaller rank
    code, out, err = run_cli("fo", "measure", "--family", "linorder", "--n", str(n))
    assert (code, out.strip(), err) == (0, f"measure N: {value}", "")


def test_fo_measure_above_the_exact_size_exits_three(monkeypatch):
    # the order-3 root separates at size 5, so a measure of 6 is no bound
    monkeypatch.setattr(efgames, "measure_N", lambda left, right: 6)
    code, out, err = run_cli("fo", "measure", "--family", "linorder", "--n", "3")
    assert (code, out) == (3, "")
    assert "measure N is 6, but an existential formula of size 5" in err


def test_fo_measure_keeps_its_output_when_a_cap_stops_the_check():
    # the n = 4 check stops at an 81-member star over the default class cap;
    # the value stays, marked unchecked with the cap that stopped it
    code, out, err = run_cli("fo", "measure", "--family", "linorder", "--n", "4")
    assert (code, err) == (0, "")
    assert out == (
        "measure N: 7 (unchecked: a branching extension reaches 81 members, over "
        "the cap 64 (--cap-class-size); stopped at a rank-2 position, visited "
        "positions in this query: 200)\n"
    )
    code, out, _ = run_cli("--json", "fo", "measure", "--family", "linorder", "--n", "4")
    assert (code, json.loads(out)) == (0, {"measure": "N", "value": 7, "checked": False})
    argv = ("fo", "measure", "--family", "linorder", "--n", "3", "--cap-positions", "1")
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert out.startswith(
        "measure N: 5 (unchecked: visited positions exceed the cap 1 (--cap-positions)"
    )


def test_fo_measure_needs_consistent_inputs(order_classes):
    left, _ = order_classes
    code, _, err = run_cli("fo", "measure", "--family", "linorder", left)
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli("fo", "measure", "--family", "linorder")
    assert code == 1


def test_fo_measure_rejects_a_large_universe_without_its_order(tmp_path):
    # 60,000 elements and an empty '<': the check compares the pair count
    # and never lists the 1.8e9 pairs of the natural order
    member = {"vocabulary": [["<", 2]], "universe": 60000, "relations": {"<": []}}
    big = write_json(tmp_path, "big.json", [{**member, "assignment": {}}])
    two = write_json(tmp_path, "two.json", class_to_json(linorder_instances(2)[0]))
    code, out, err = run_cli("fo", "measure", "--family", "linorder", big, two)
    assert (code, out) == (1, "")
    assert err == "error: '<' must be the natural strict order on 0..k-1\n"


def test_fo_measure_takes_either_n_or_two_class_files(order_classes):
    left, right = order_classes
    both = run_cli("fo", "measure", "--family", "linorder", "--n", "5", left, right)
    half = run_cli("fo", "measure", "--family", "linorder", "--n", "5", left)
    for code, out, err in (both, half):
        assert (code, out) == (1, "")
        assert err == "error: measure needs --n or two class files\n"


def test_repro_parity_rejects_a_width_past_its_construction_at_once(monkeypatch):
    def unreachable(left, right):
        raise AssertionError("the certificate was computed")

    monkeypatch.setattr(efgames, "density_lower_bound", unreachable)
    for n in ("11", "17"):
        code, out, err = run_cli("repro", "parity", "--n", n)
        assert (code, out) == (1, "")
        assert err == f"error: parity width must be 1..10, got {n}\n"


def test_repro_parity_report():
    code, out, _ = run_cli("--json", "repro", "parity", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["experiment"] == "parity"
    assert payload["certificate_bound"] == 4
    assert payload["construction_size"] == 4
    assert payload["exact_minsize"] == 4
    assert payload["runtime_ms"] >= 0


def test_repro_boolcomb_report():
    code, out, _ = run_cli("--json", "repro", "boolcomb", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate_bound"] == 4
    assert payload["construction_size"] == 4
    assert payload["exact_minsize"] == 4


def test_repro_linorder_text_without_exact():
    code, out, _ = run_cli("repro", "linorder", "--n", "5")
    assert code == 0
    assert "certificate bound: 9" in out
    assert "construction size: 9" in out
    assert "exact minimal size: not computed" in out


def test_repro_proves_an_interval_without_the_exact_search():
    # boolcomb searches only at n = 1; at n = 2 certificate = construction
    code, out, _ = run_cli("--json", "repro", "boolcomb", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_minsize"] is None
    assert payload["proven_interval"] == [12, 12]
    code, out, _ = run_cli("repro", "boolcomb", "--n", "2")
    assert "exact minimal size: not computed\nproven interval: [12, 12]\n" in out
    # the exact size, once found, is the low end
    payload = json.loads(run_cli("--json", "repro", "parity", "--n", "3")[1])
    assert (payload["exact_minsize"], payload["proven_interval"]) == (10, [10, 10])
    assert ReproReport("parity", 3, 9, 12, 10, 0).proven_interval == (10, 12)
    assert ReproReport("parity", 3, 9, 12, None, 0).proven_interval == (9, 12)


FO_CAP_FLAGS = ("--cap-positions", "--cap-choice-functions", "--cap-class-size")


def test_repro_reports_a_cap_hit_as_not_computed():
    # every cap flag of every repro reaches its solver, which names it
    cases = [
        (("linorder", "--n", "3", "--cap-positions", "5"), "--cap-positions"),
        (("linorder", "--n", "4"), "--cap-class-size"),  # a star extension reaches 81 > 64
        (("parity", "--n", "5"), "--cap-strings"),  # 32 strings > 16
        (("parity", "--n", "2", "--cap-strings", "3"), "--cap-strings"),
    ] + [
        ((experiment, "--n", n, flag, "1"), flag)
        for experiment, n in (("boolcomb", "1"), ("linorder", "3"))
        for flag in FO_CAP_FLAGS
    ]
    for argv, flag in cases:
        code, out, err = run_cli("repro", *argv)
        assert code == 0, err
        assert "exact minimal size: not computed (" in out
        assert f"({flag})" in out, argv


def test_repro_searches_only_below_the_checked_construction(monkeypatch):
    # the construction sentence of size 5 is checked first, so the search
    # only has to refute ranks 1..4
    minsize, asked = efgames.FoGame.minsize, []

    def spy(self, left, right, mode, w_max):
        asked.append(w_max)
        return minsize(self, left, right, mode, w_max)

    monkeypatch.setattr("efgames.FoGame.minsize", spy)
    code, out, _ = run_cli("--json", "repro", "linorder", "--n", "3")
    assert code == 0
    assert asked == [4]
    assert json.loads(out)["exact_minsize"] == 5


def test_repro_names_the_cap_that_stopped_it():
    code, out, _ = run_cli("--json", "repro", "linorder", "--n", "4")
    assert code == 0
    cap_hit = json.loads(out)["cap_hit"]
    assert "(--cap-class-size)" in cap_hit
    assert "stopped at a rank-" in cap_hit
    assert "visited positions in this query:" in cap_hit
    code, out, _ = run_cli("repro", "linorder", "--n", "4")
    assert f"exact minimal size: not computed ({cap_hit})\n" in out
    # no cap hit when the exact size is computed
    code, out, _ = run_cli("--json", "repro", "linorder", "--n", "3")
    assert json.loads(out)["cap_hit"] is None


def test_repro_linorder_four_meets_its_certificate_under_a_raised_cap():
    # the first n at which the N certificate is checked against an exact
    # size: rank 7 is the construction, so ranks 1..6 are refuted
    code, out, _ = run_cli(
        "--json", "repro", "linorder", "--n", "4", "--cap-class-size", "1000"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate_bound"] == 7
    assert payload["construction_size"] == 7
    assert payload["exact_minsize"] == 7
    assert payload["cap_hit"] is None


def test_a_class_over_the_cap_at_the_root_says_how_far_the_query_got(tmp_path):
    # the boolcomb n = 1 adversary class has 2 members, over a cap of 1
    code, out, _ = run_cli("--json", "repro", "boolcomb", "--n", "1", "--cap-class-size", "1")
    assert code == 0
    cap_hit = json.loads(out)["cap_hit"]
    for part in ("(--cap-class-size)", "stopped at a rank-", "visited positions in this query: 0"):
        assert part in cap_hit
    left, right = boolcomb_instances(1)
    files = [write_json(tmp_path, f"{name}.json", class_to_json(c))
             for name, c in (("left", left), ("right", right))]
    code, _, err = run_cli("fo", "winner", *files, "--rank", "3", "--cap-class-size", "1")
    assert code == 2
    assert "(--cap-class-size); stopped at a rank-3 position" in err
    assert "visited positions in this query: 0" in err


def test_repro_rechecks_the_parity_construction(monkeypatch):
    # p1 is smaller than either parity formula, so it is the one reported
    monkeypatch.setattr("efgames.parity_balanced", lambda n: Var(1))
    code, out, err = run_cli("repro", "parity", "--n", "3")
    assert code == 3
    assert out == ""
    assert "does not separate the instances" in err


def _flags(parser, keep, path=()):
    """(subcommand path, option strings of the actions keep accepts) for
    every subcommand of parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, [o for a in parser._actions if keep(a) for o in a.option_strings]
    for action in subs:
        for name, sub in action.choices.items():
            yield from _flags(sub, keep, path + (name,))


def _cap_flags(parser):
    return _flags(parser, lambda a: any(o.startswith("--cap-") for o in a.option_strings))


def test_the_caps_table_lists_every_cap_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Resource caps", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(--[a-z-]+)` \|", section, re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert set(rows) == {f for _, flags in _cap_flags(cli._parser()) for f in flags}


def test_the_readme_lists_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Commands", 1)[1].split("\n### ", 1)[0]
    lines = re.findall(r"^efgames ([a-z]+) ([a-z]+)\b", section, re.MULTILINE)
    assert len(lines) == len(set(lines))
    assert set(lines) == {path for path, _ in _flags(cli._parser(), lambda a: False)}



def test_the_readme_examples_give_what_they_state():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    sketch = sketch.split("```", 1)[0]
    namespace = {}
    exec(sketch, namespace)
    stated = re.findall(r"^(\S.*?)\s+# (\d+)\b", sketch, re.MULTILINE)
    assert [int(value) for _, value in stated] == [4, 4, 5, 5]
    for expr, value in stated:
        assert eval(expr, namespace) == int(value), expr
    f, left, right = namespace["f"], namespace["S"], namespace["R"]
    assert size(f) == 4 and separates(f, left, right)
    command = "$ efgames --json repro parity --n 2\n"
    example = json.loads(readme.split(command, 1)[1].split("```", 1)[0])
    code, out, _ = run_cli(*command.split()[2:])
    got = json.loads(out)
    assert code == 0
    assert {**got, "runtime_ms": None} == {**example, "runtime_ms": None}

# a command line for each subcommand that declares caps; only the parser
# reads it, so the files need not exist
CAP_SAMPLES = {
    ("prop", "minsize"): "pair.json",
    ("prop", "winner"): "pair.json --rank 1",
    ("prop", "synth"): "pair.json --rank 1",
    ("fo", "winner"): "left.json right.json --rank 1",
    ("fo", "minsize"): "left.json right.json",
    ("fo", "synth"): "left.json right.json --rank 1",
    ("fo", "measure"): "--family linorder",
    ("repro", "parity"): "--n 2",
    ("repro", "boolcomb"): "--n 1",
    ("repro", "linorder"): "--n 2",
}


def test_every_cap_flag_sets_a_keyword_of_its_solver():
    parser = cli._parser()
    declared = dict(_cap_flags(parser))
    assert {path for path, flags in declared.items() if flags} == set(CAP_SAMPLES)
    for path, rest in CAP_SAMPLES.items():
        caps = cli._caps(parser.parse_args([*path, *rest.split()]))
        assert len(caps) == len(declared[path])
        if path[0] == "prop" or path == ("repro", "parity"):
            solver = PropGame(2, **caps)
        else:
            solver = FoGame(**caps)
        assert all(getattr(solver, k) == v for k, v in caps.items())


# the same for every subcommand that declares an int flag
FLAG_SAMPLES = {
    **CAP_SAMPLES,
    ("prop", "parity"): "--n 1",
    ("oracle", "table"): "--n 1",
    ("oracle", "count"): "--m 0 --n 1",
}


def test_every_numeric_flag_rejects_a_value_out_of_range_as_input():
    # caps and --m may be 0; ranks, --wmax and --n must be at least 1.  Every
    # int flag is walked: one declared as plain int would reach the library
    # and fail there, naming a library keyword, or not fail at all
    parser = cli._parser()
    walked = set()
    for path, flags in _flags(parser, lambda a: getattr(a.type, "__name__", "") == "int"):
        for flag in flags:
            low = 0 if flag.startswith("--cap-") or flag == "--m" else 1
            argv = [*path, *FLAG_SAMPLES[path].split(), flag]
            parser.parse_args([*argv, str(low)])
            code, out, err = run_cli(*argv, str(low - 1))
            assert code == 1, argv
            assert out == ""
            assert f"argument {flag}: must be >= {low}" in err, argv
            walked.add(flag)
    assert {"--rank", "--wmax", "--n", "--m", "--cap-strings"} <= walked


def test_missing_file_exits_one(tmp_path):
    code, _, err = run_cli("prop", "minsize", str(tmp_path / "absent.json"))
    assert code == 1
    assert "error:" in err


def test_malformed_pair_files_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    cases = [
        str(bad),
        write_json(tmp_path, "list.json", ["00"]),
        write_json(tmp_path, "width.json", {"width": "2", "S": ["00"], "R": ["11"]}),
        write_json(tmp_path, "side.json", {"width": 2, "S": "00", "R": ["11"]}),
        write_json(tmp_path, "string.json", {"width": 2, "S": ["0x"], "R": ["11"]}),
    ]
    for path in cases:
        code, _, err = run_cli("prop", "minsize", path)
        assert code == 1, path
        assert "error:" in err


def test_usage_mistakes_exit_one(parity_pair):
    code, _, err = run_cli("prop", "nonsense", parity_pair)
    assert code == 1
    code, _, err = run_cli("prop", "winner", parity_pair)  # --rank missing
    assert code == 1
    code, _, err = run_cli("prop", "winner", parity_pair, "--rank", "0")
    assert code == 1


# each cap flag set low enough to trip it; player II wins the order classes
# at rank 2, so those searches try every move of the root
CAP_TRIPS = [
    ("prop", "minsize", "PAIR", "--cap-strings", "2"),
    ("prop", "winner", "PAIR", "--rank", "4", "--cap-strings", "3"),
    ("prop", "synth", "PAIR", "--rank", "4", "--cap-strings", "3"),
    ("prop", "winner", "PAIR", "--rank", "4", "--mode", "exact",
     "--cap-exact-strings", "3"),
    ("fo", "minsize", "LEFT", "RIGHT", "--cap-positions", "5"),
] + [
    ("fo", command, "LEFT", "RIGHT", *rank, flag, "1")
    for command, rank in (
        ("winner", ("--rank", "2")), ("minsize", ()), ("synth", ("--rank", "2"))
    )
    for flag in FO_CAP_FLAGS
]


def test_resource_caps_exit_two(parity_pair, order_classes):
    # every cap flag of every prop and fo command reaches its solver
    files = {"PAIR": parity_pair, "LEFT": order_classes[0], "RIGHT": order_classes[1]}
    for argv in CAP_TRIPS:
        code, out, err = run_cli(*(files.get(w, w) for w in argv))
        assert code == 2, argv
        assert out == ""
        assert err.startswith("resource cap:")
        assert f"({argv[-2]})" in err, argv


def test_a_search_past_the_recursion_limit_exits_two(parity_pair, order_classes):
    # a rank far past the answer takes the search one call deeper per rank,
    # so the stack runs out before any cap is reached
    prop = run_cli("prop", "winner", parity_pair, "--rank", "2000", "--mode", "exact")
    # the first-order search is slow enough at the default limit that it
    # runs under a limit of 100 frames above this one
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        fo = run_cli(
            "fo", "winner", *order_classes, "--rank", "100", "--mode", "existential"
        )
    finally:
        sys.setrecursionlimit(limit)
    for code, out, err in (prop, fo):
        assert (code, out) == (2, "")
        assert err.startswith("resource cap: the search went deeper than the ")
        assert "recursion limit" in err and err.rstrip().endswith("try a lower rank")


def test_contract_violations_exit_three(monkeypatch):
    def boom(n, **kwargs):
        raise ContractError("boom")

    monkeypatch.setattr("efgames.cli.repro_parity", boom)
    code, _, err = run_cli("repro", "parity", "--n", "2")
    assert code == 3
    assert "contract violation:" in err


def test_prop_synth_rechecks_the_formula(monkeypatch, parity_pair):
    # p1 does not separate the parity pair; the second formula separates it
    # but has size 5 > rank 4
    padded = parse_formula("((!p1 & !p2) | ((p2 & p1) & p1))")
    assert separates(padded, *parity_property(2)) and size(padded) == 5
    for wrong in (Var(1), padded):
        monkeypatch.setattr(
            "efgames.PropGame.synthesize", lambda self, left, right, budget: wrong
        )
        code, out, err = run_cli("prop", "synth", parity_pair, "--rank", "4")
        assert code == 3
        assert out == ""
        assert "contract violation:" in err


def test_prop_minsize_rechecks_the_density_bound(monkeypatch, parity_pair):
    # the density bound of parity 2 is 4
    monkeypatch.setattr("efgames.PropGame.minsize", lambda self, left, right: 3)
    code, out, err = run_cli("prop", "minsize", parity_pair)
    assert code == 3
    assert out == ""
    assert "contract violation:" in err


# the linear orders of 2 against 1 elements: exists x0 exists x1 (x0 < x1)
# is the size-3 existential separator
ORDER_SEPARATOR = Exists(0, Exists(1, RelAtom("<", (0, 1))))
WRONG_FO_ANSWERS = (
    Exists(0, EqAtom(0, 0)),  # true on both sides
    RelAtom("<", (0, 1)),  # its free variables are outside the empty domain
    FoAnd(ORDER_SEPARATOR, ORDER_SEPARATOR),  # separates, but size 6 > 3
    # separates within size 3, but is universal
    Forall(0, Exists(1, FoNot(EqAtom(0, 1)))),
)


def test_fo_synth_rechecks_the_formula(monkeypatch, order_classes):
    left, right = order_classes
    for wrong in WRONG_FO_ANSWERS:
        monkeypatch.setattr(
            "efgames.FoGame.synthesize", lambda self, l, r, rank, mode: wrong
        )
        code, out, err = run_cli(
            "fo", "synth", left, right, "--rank", "3", "--mode", "existential"
        )
        assert code == 3
        assert out == ""
        assert "contract violation:" in err
    # the universal form is a valid answer in full mode
    code, out, _ = run_cli("fo", "synth", left, right, "--rank", "3")
    assert code == 0


def test_fo_minsize_rechecks_a_formula_of_that_size(monkeypatch, order_classes):
    left, right = order_classes
    synthesize = efgames.FoGame.synthesize
    for wrong in WRONG_FO_ANSWERS:
        monkeypatch.setattr(
            "efgames.FoGame.synthesize", lambda self, l, r, rank, mode: wrong
        )
        code, out, err = run_cli("fo", "minsize", left, right, "--mode", "existential")
        assert code == 3
        assert out == ""
        assert "contract violation:" in err
    # a size below the true minimum 3 has no formula to show for it
    monkeypatch.setattr("efgames.FoGame.synthesize", synthesize)
    monkeypatch.setattr(
        "efgames.FoGame.minsize", lambda self, l, r, mode, w_max: 2
    )
    code, out, err = run_cli("fo", "minsize", left, right, "--mode", "existential")
    assert code == 3
    assert "contract violation:" in err


@pytest.mark.parametrize(
    "family, builder",
    [
        ("linorder", "linorder_existential_sentence"),
        ("boolcomb", "boolcomb_existential_sentence"),
    ],
)
def test_repro_rechecks_the_construction_sentence(monkeypatch, family, builder):
    # true on both sides, and free variables outside the empty domain
    for wrong in (Exists(0, EqAtom(0, 0)), RelAtom("<", (0, 1))):
        monkeypatch.setattr(f"efgames.{builder}", lambda n: wrong)
        code, out, err = run_cli("repro", family, "--n", "2")
        assert code == 3
        assert out == ""
        assert "does not separate the instances" in err


def test_repro_rejects_a_universal_construction(monkeypatch):
    # separates the 2-order from the 1-order, but is not existential
    universal = Forall(0, Exists(1, FoNot(EqAtom(0, 1))))
    monkeypatch.setattr("efgames.linorder_existential_sentence", lambda n: universal)
    code, out, err = run_cli("repro", "linorder", "--n", "2")
    assert code == 3
    assert "contract violation: construction sentence" in err
    assert "is not existential" in err


def test_the_parser_is_built_once(monkeypatch):
    build, calls = cli._build_parser, []
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", lambda: calls.append(1) or build())
    for _ in range(2):
        assert run_cli("repro", "parity", "--n", "2")[0] == 0
    assert len(calls) == 1


def test_options_do_not_carry_over_between_runs(order_classes):
    code, out, _ = run_cli("--json", "repro", "parity", "--n", "2", "--cap-strings", "2")
    assert code == 0
    assert json.loads(out)["exact_minsize"] is None
    code, out, _ = run_cli("repro", "parity", "--n", "2")
    assert code == 0
    assert "exact minimal size: 4" in out
    left, right = order_classes
    assert run_cli("fo", "minsize", left, right, "--cap-positions", "5")[0] == 2
    code, out, _ = run_cli("--json", "fo", "minsize", left, right)
    assert code == 0
    assert json.loads(out) == {"result": "size", "size": 3}


def test_repro_report_checks_its_own_bounds():
    with pytest.raises(ContractError):
        ReproReport("parity", 1, 5, 4, None, 0)
    with pytest.raises(ContractError):
        ReproReport("parity", 1, 2, 4, 5, 0)
    report = ReproReport("parity", 1, 2, 4, None, 0)
    assert "not computed" in report.text()


def _run_module(module):
    src = str(Path(efgames.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return subprocess.run(
        [sys.executable, "-m", module, "--json", "repro", "parity", "--n", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        timeout=120,
    )


def test_python_dash_m_runs_the_command_line():
    done = _run_module("efgames")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["exact_minsize"] == 4


def test_python_dash_m_runs_the_cli_module():
    done = _run_module("efgames.cli")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["exact_minsize"] == 4


# a fresh interpreter runs one repro experiment with its clock patched to
# record whether the solver's module was already imported when it started
CLOCK_CHECK = """
import sys
import efgames.cli as cli
real, seen = cli.time.perf_counter, []

def clock():
    seen.append(sys.argv[1] in sys.modules)
    return real()

cli.time.perf_counter = clock
cli.{call}
print(seen[0], len(seen))
"""


@pytest.mark.parametrize(
    "call, module",
    [
        ("repro_parity(2)", "efgames.propgame"),
        ("repro_fo('linorder', 2)", "efgames.fogame"),
        ("repro_fo('boolcomb', 1)", "efgames.fogame"),
    ],
)
def test_the_repro_clock_starts_after_the_solver_imports(call, module):
    src = str(Path(efgames.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    done = subprocess.run(
        [sys.executable, "-c", CLOCK_CHECK.format(call=call), module],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "2"]
