"""Seeded inputs of the benchmark workloads, written as the CLI's file formats.

Run as a script, this is the set-up step the benchmark times: start an
interpreter, import efgames, generate one workload's inputs from a seed,
write them and read them back.

    python3 perfbench/inputs.py --workload prop-cold --seed 7 --out DIR

The seed relabels and reorders a fixed body of work, so the deterministic
counts are the same for every seed.  Random string pairs are drawn once from
BASE_SEED; the run seed maps each pair through a symmetry of the hypercube (a
permutation of the variables and a flip of some of them), which changes every
mask the solver sees but not the size of its size table.  In the
first-order workloads the seed orders the members of every class file and
the tiny universe's class files.  The benchmark also draws the order of the
queries in each pass from the seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from pathlib import Path

import program

WORKLOADS = ("prop-cold", "fo-linorder", "fo-deep", "fo-tiny")
MANIFEST = "queries.json"

BASE_SEED = 2012
WIDTH4_SIZES = (12, 12, 13, 13, 14, 14, 15)
WIDTH3_SIZES = (4, 5, 6, 7, 8) * 3 + (8,)
PARITY_REPRO = (2, 3, 4)
LINORDER_POSITIONS = (2, 3)
LINORDER_REPRO = (2, 3)
BOOLCOMB_REPRO = (1, 2)
# Queries of about a millisecond are asked this many times per pass, at
# shuffled moments, so their latency is a median of samples spread over the
# pass even when few passes fit.
CHEAP_REPEATS = 16


def _text(e: int, width: int) -> str:
    # character i is s_{i+1}, the bit with weight 2**i, as BitString reads it
    return "".join("1" if e >> i & 1 else "0" for i in range(width))


def _relabel(strings: list[str], rng: random.Random) -> list[str]:
    width = len(strings[0])
    perm = rng.sample(range(width), width)
    flips = [rng.randrange(2) for _ in range(width)]
    return [
        "".join(str(int(s[perm[i]]) ^ flips[i]) for i in range(width))
        for s in strings
    ]


def _base_pairs() -> list[tuple[int, list[int], list[int]]]:
    rng = random.Random(BASE_SEED)
    pairs = []
    for width, sizes in ((4, WIDTH4_SIZES), (3, WIDTH3_SIZES)):
        for k in sizes:
            strings = rng.sample(range(1 << width), k)
            split = rng.randint(1, k - 1)
            pairs.append((width, strings[:split], strings[split:]))
    return pairs


def _repro(experiment: str, n: int, repeats: int = 1) -> dict:
    return {
        "kind": "repro",
        "experiment": experiment,
        "n": n,
        "argv": ["repro", experiment, "--n", str(n)],
        "repeats": repeats,
    }


def _prop_cold(rng: random.Random, files: dict[str, object]) -> dict:
    ef = program.load()
    pairs = _base_pairs()
    even, odd = ef.parity_property(4)
    pairs.append((4, [s.bits for s in even.strings()], [s.bits for s in odd.strings()]))
    queries = []
    for i, (width, left, right) in enumerate(pairs):
        texts = _relabel([_text(e, width) for e in left + right], rng)
        name = f"pair{i:02d}.json"
        files[name] = {"width": width, "S": texts[: len(left)], "R": texts[len(left):]}
        family = "parity" if i == len(pairs) - 1 else "random"
        queries.append({
            "kind": "pair", "family": family, "width": width, "file": name,
            "repeats": CHEAP_REPEATS if width == 3 else 1,
        })
    queries += [_repro("parity", n, CHEAP_REPEATS if n < 4 else 1) for n in PARITY_REPRO]
    return {"queries": queries}


def _linorder_positions(ef, n: int):
    """The root pair and every chain of at most two supplementing extensions:
    one reference choice on the left against the star extension on the right."""
    left, right = ef.linorder_instances(n)
    yield 0, left, right
    frontier = [(left, right)]
    for depth in (1, 2):
        nxt = []
        for a, b in frontier:
            j = len(a.domain)
            b2 = ef.extend_star(b, j)
            for pick in range(a.members[0].model.universe_size):
                a2 = ef.extend_choice(a, [pick], j)
                yield depth, a2, b2
                nxt.append((a2, b2))
        frontier = nxt


def _class_json(ef, cls, rng: random.Random) -> list:
    """The CLI's class file, members in seeded order: the solvers put
    members in canonical order themselves."""
    members = ef.class_to_json(cls)
    rng.shuffle(members)
    return members


def _add_linorder(ef, rng: random.Random, files: dict[str, object], queries: list[dict],
                  mode: str, n: int, depth: int, left, right) -> None:
    stem = f"lin{len(queries):02d}"
    files[stem + "_left.json"] = _class_json(ef, left, rng)
    files[stem + "_right.json"] = _class_json(ef, right, rng)
    queries.append({
        "kind": "linorder", "mode": mode, "n": n, "depth": depth,
        "left": stem + "_left.json", "right": stem + "_right.json",
    })


def _fo_linorder(rng: random.Random, files: dict[str, object]) -> dict:
    ef = program.load()
    queries: list[dict] = []
    _add_linorder(ef, rng, files, queries, "full", 2, 0, *ef.linorder_instances(2))
    for n in LINORDER_POSITIONS:
        for depth, left, right in _linorder_positions(ef, n):
            _add_linorder(ef, rng, files, queries, "existential", n, depth, left, right)
    queries += [_repro("linorder", n) for n in LINORDER_REPRO]
    queries += [_repro("boolcomb", n) for n in BOOLCOMB_REPRO]
    return {"queries": queries}


def _fo_deep(rng: random.Random, files: dict[str, object]) -> dict:
    ef = program.load()
    queries: list[dict] = []
    _add_linorder(ef, rng, files, queries, "full", 3, 0, *ef.linorder_instances(3))
    return {"queries": queries}


def _tiny_universe(ef) -> list:
    """One unary symbol, every model of at most two elements, and every class
    of one or two of them over the empty domain: 6 models, 21 classes."""
    vocab = ef.Vocabulary.make(("P1", 1))
    structs = [
        ef.Structure(
            ef.Model.make(vocab, size, {"P1": [(e,) for e in range(size) if bits >> e & 1]}),
            ef.EMPTY_ASSIGNMENT,
        )
        for size in (1, 2)
        for bits in range(1 << size)
    ]
    return [
        ef.StructureClass.of(combo, vocabulary=vocab, domain=frozenset())
        for k in (1, 2)
        for combo in itertools.combinations(structs, k)
    ]


def _fo_tiny(rng: random.Random, files: dict[str, object]) -> dict:
    ef = program.load()
    classes = _tiny_universe(ef)
    rng.shuffle(classes)
    names = []
    for i, cls in enumerate(classes):
        names.append(f"class{i:02d}.json")
        files[names[-1]] = _class_json(ef, cls, rng)
    queries = [
        {"kind": "tiny", "mode": mode, "left": name}
        for mode in ("existential", "full")
        for name in names
    ]
    return {"queries": queries, "classes": names}


_GENERATORS = {
    "prop-cold": _prop_cold,
    "fo-linorder": _fo_linorder,
    "fo-deep": _fo_deep,
    "fo-tiny": _fo_tiny,
}


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Generate the workload's inputs for ``seed`` and write them under out."""
    rng = random.Random(seed)
    files: dict[str, object] = {}
    manifest = _GENERATORS[workload](rng, files)
    for qid, query in enumerate(manifest["queries"]):
        query["id"] = qid
    asked = []
    for query in manifest["queries"]:
        asked += [query] * query.pop("repeats", 1)
    manifest["queries"] = asked
    files[MANIFEST] = manifest
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_text(json.dumps(data))


def read_inputs(out: Path) -> dict:
    """The manifest, after checking that every input file it names parses."""
    manifest = json.loads((out / MANIFEST).read_text())
    names = set(manifest.get("classes", ()))
    for query in manifest["queries"]:
        names.update(query[k] for k in ("file", "left", "right") if k in query)
    for name in sorted(names):
        json.loads((out / name).read_text())
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, args.out)
    read_inputs(args.out)


if __name__ == "__main__":
    main()
