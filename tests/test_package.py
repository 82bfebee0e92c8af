"""The package's exported names and which submodules a caller loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import efgames

# each submodule that a fresh interpreter holds after the statement
LOADS = [
    ("import efgames", set()),
    (
        "import efgames; efgames.parity_property",
        {"errors", "formula", "props", "propbounds"},
    ),
    ("from efgames import FoGame", {"errors", "formula", "fo", "fogame"}),
    (
        "from efgames import oracle_minsize",
        {"errors", "formula", "fo", "oracle", "props"},
    ),
    # the command line reads every solver name through the package, so
    # building its parser (what --help does) loads no solver, and a command
    # loads only the solver it runs; pair.json holds PAIR
    ("import efgames.cli", {"cli", "errors"}),
    ("import efgames.cli; efgames.cli._parser().format_help()", {"cli", "errors"}),
    (
        "import efgames.cli; efgames.cli.run(['prop', 'minsize', 'pair.json'])",
        {"cli", "errors", "formula", "props", "propbounds", "propgame"},
    ),
    (
        "import efgames.cli; "
        "efgames.cli.run(['fo', 'measure', '--family', 'linorder', '--n', '3'])",
        {"cli", "errors", "formula", "fo", "fobounds", "fogame"},
    ),
]
# standard modules that no statement of LOADS may load: dataclasses pulls in
# inspect, ast, dis and more at a fresh interpreter's start, and only
# efgames.density needs fractions
UNLOADED = {"dataclasses", "inspect", "fractions"}
# the width-2 parity pair
PAIR = {"width": 2, "S": ["00", "11"], "R": ["01", "10"]}


def _loaded_after(statement, cwd):
    """The efgames modules, and those of UNLOADED, that a fresh interpreter
    holds after the statement (the test process has imported everything)."""
    src = str(Path(efgames.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    report = (
        "import json, sys; "
        "print(json.dumps(sorted(m for m in sys.modules "
        f"if m.split('.')[0] == 'efgames' or m in {sorted(UNLOADED)})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", f"{statement}; {report}"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        timeout=120,
        cwd=cwd,
    )
    assert done.returncode == 0, done.stderr
    # the report is the last line, after whatever the statement printed
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize("statement, submodules", LOADS)
def test_a_caller_loads_only_the_submodules_it_uses(statement, submodules, tmp_path):
    (tmp_path / "pair.json").write_text(json.dumps(PAIR))
    loaded = _loaded_after(statement, tmp_path)
    assert loaded & UNLOADED == set()
    assert loaded == {"efgames"} | {f"efgames.{m}" for m in submodules}


def test_fractions_loads_once_density_runs(tmp_path):
    loaded = _loaded_after("import efgames; efgames.density(*efgames.parity_property(2))", tmp_path)
    assert loaded & UNLOADED == {"fractions"}
    assert loaded == {"efgames", "fractions"} | {
        f"efgames.{m}" for m in ("errors", "formula", "props", "propbounds")
    }


def test_every_exported_name_is_its_submodules_object():
    assert len(efgames.__all__) == len(set(efgames.__all__)) == 87
    for name, module in efgames._EXPORTS.items():
        defining = importlib.import_module(f"efgames.{module}")
        assert getattr(efgames, name) is getattr(defining, name), name
        # bound on first read, so later reads skip the module __getattr__
        assert vars(efgames)[name] is getattr(defining, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from efgames import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(efgames.__all__)


def test_dir_covers_all():
    assert set(efgames.__all__) <= set(dir(efgames))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        efgames.no_such_name
    assert not hasattr(efgames, "no_such_name")


def test_both_games_share_one_player():
    from efgames import fogame, formula, propgame

    assert propgame.Player is fogame.Player is formula.Player is efgames.Player


def test_version():
    assert efgames.__version__ == "0.1.0"
