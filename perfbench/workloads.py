"""The benchmark's queries, run through efgames' public API.

Each query goes load -> solve -> synthesize -> verify on the generated input
files, with a span around every call into a module, and every answer is
checked.  Counts come from values the API hands back.  A run repeats the
whole query list in passes until the time is up, with fresh solvers in every
pass, so every pass does the same work, in an order drawn from the seed.  A
query listed several times in the manifest is answered that many times in a
pass.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import time
from collections import Counter
from pathlib import Path
from types import ModuleType
from typing import Callable, Optional

from spans import Tracer

# Layers timed by spans, reported as "<name>_ms" of self time per pass.
TIMED = (
    "props.load", "props.verify",
    "propgame.minsize", "propgame.synth", "propgame.exact",
    "propbounds.density",
    "fo.load", "fo.verify",
    "fogame.minsize", "fogame.winner", "fogame.synth",
    "fobounds.measure", "fobounds.construction",
    "oracle.enum", "oracle.minsize",
    "cli.repro",
)
# Exact counts per pass.
COUNTED = (
    "propgame.table_entries", "propgame.cap_errors",
    "fogame.positions", "fogame.cap_errors",
    "fobounds.cert_violations", "oracle.mismatches",
)

# Known exact minimal sizes: parity 2..4, linear orders 2..3 (existential and
# full), and the combination family at n = 1.
KNOWN_SIZE = {
    ("parity", 2): 4, ("parity", 3): 10, ("parity", 4): 16,
    ("linorder", 2): 3, ("linorder", 3): 5,
    ("boolcomb", 1): 4,
}
# Deterministic counts of the solvers as the benchmark was defined (ROADMAP
# baselines).  A later change that alters one alters the search, and must
# re-baseline here on its own.
PARITY4_TABLE_ENTRIES = 65_025
LINORDER_ROOT_POSITIONS = {("full", 3): 82_799, ("existential", 3): 139}
TINY_POSITIONS = {"existential": 19_304, "full": 22_520}
# Ranks searched on the tiny universe; full mode at rank 4 takes minutes.
TINY_RANKS = {"existential": 4, "full": 3}


class Run:
    """One workload run: its passes, latencies, counts and failed checks."""

    def __init__(self, ef: ModuleType, work: Path, tracer: Tracer, seed: int) -> None:
        self.ef = ef
        self.rng = random.Random(seed)
        self.cli = importlib.import_module("efgames.cli")
        self.work = work
        self.tracer = tracer
        self.passes: list[tuple[float, float]] = []  # (start, end) per pass
        self.queries: list[tuple[int, float, float]] = []  # (id, start, end) per query run
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # every failed check, for the report
        self.wrong: list[str] = []  # failed checks that make the run incorrect
        self.counts: list[Counter] = []  # one per pass
        self._query_failed = False

    # -- checks -------------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        """An answer check: failing it fails the query and the run."""
        if not ok:
            self._fail(what, wrong=True)
        return ok

    def cert(self, ok: bool, what: str, counter: Optional[str] = None) -> None:
        """A certificate check.  A bound above the exact size is a false
        bound, so the query fails, but the exact answers stay right."""
        if not ok:
            if counter is not None:
                self.count(counter)
            self._fail(what, wrong=False)

    def _fail(self, what: str, wrong: bool) -> None:
        self._query_failed = True
        where = f"query {self.tracer.query}: " if self.tracer.query is not None else ""
        self.failures.append(where + what)
        if wrong:
            self.wrong.append(where + what)

    def count(self, name: str, by: int = 1) -> None:
        self.counts[-1][name] += by

    def _load(self, name: str) -> object:
        return json.loads((self.work / name).read_text())

    # -- passes -------------------------------------------------------------

    def run(self, manifest: dict, seconds: float) -> None:
        begin = time.perf_counter()
        while True:
            self.counts.append(Counter())
            # Fresh solvers answer in a fresh order every pass, so that no
            # query always follows the same one (or meets the same garbage
            # collection).  The tiny universe's queries share solvers, so a
            # query's cost depends on its place in the order: that order
            # stays fixed for the run.
            if len(self.counts) == 1 or "classes" not in manifest:
                queries = self.rng.sample(manifest["queries"], len(manifest["queries"]))
            start = time.perf_counter()
            if "classes" in manifest:  # only the tiny universe shares classes
                self._tiny_pass(manifest["classes"], queries)
            else:
                for q in queries:
                    handler = self.pair if q["kind"] == "pair" else (
                        self.repro if q["kind"] == "repro" else self.linorder
                    )
                    self.query(q, handler)
            end = time.perf_counter()
            self.passes.append((start, end))
            if len(self.counts) > 1 and self.counts[-1] != self.counts[0]:
                self.wrong.append(
                    f"pass {len(self.counts)} counts {dict(self.counts[-1])} differ "
                    f"from pass 1 {dict(self.counts[0])}"
                )
            if end - begin >= seconds:
                return

    def query(self, q: dict, handler: Callable[[dict], None]) -> None:
        ef = self.ef
        self.tracer.query = q["id"]
        self._query_failed = False
        first = len(self.tracer.spans)
        start = time.perf_counter()
        try:
            handler(q)
        except ef.ResourceCapError as exc:
            prop = q["kind"] == "pair" or q.get("experiment") == "parity"
            self.count("propgame.cap_errors" if prop else "fogame.cap_errors")
            self.check(False, f"resource cap: {exc}")
        except (ef.InputError, ef.ContractError) as exc:
            self.check(False, f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        for s in self.tracer.spans[first:]:
            if s.query == q["id"] and not start <= s.start <= s.end <= end:
                self.check(False, f"span {s.name} lies outside the query's latency")
        self.tracer.query = None
        self.queries.append((q["id"], start, end))
        self.attempted += 1
        self.failed += self._query_failed

    # -- propositional pairs ------------------------------------------------

    def pair(self, q: dict) -> None:
        ef = self.ef
        with self.tracer.span("props.load"):
            obj = self._load(q["file"])
            left = ef.StringProperty.from_strings(obj["width"], obj["S"])
            right = ef.StringProperty.from_strings(obj["width"], obj["R"])
        game = ef.PropGame(left.width)
        with self.tracer.span("propgame.minsize"):
            m = game.minsize(left, right)
        if not self.check(m is not None, "a disjoint pair was reported inseparable"):
            return
        with self.tracer.span("propgame.synth"):
            f = game.synthesize(left, right, m)
        with self.tracer.span("props.verify"):
            ok = f is not None and ef.separates(f, left, right) and ef.size(f) == m
        self.check(ok, f"the synthesized formula does not separate at size {m}")
        with self.tracer.span("propbounds.density"):
            bound = ef.density_lower_bound(left, right)
        self.cert(bound <= m, f"density bound {bound} exceeds the minimal size {m}")
        if q["width"] == 3:
            with self.tracer.span("oracle.minsize"):
                exact = ef.oracle_minsize(left, right)
            if exact != m:
                self.count("oracle.mismatches")
                self.check(False, f"minsize {m} but the truth-table oracle says {exact}")
            with self.tracer.span("propgame.exact"):
                at = game.winner(ef.PropPosition(m, left, right), ef.GameMode.EXACT)
                below = ef.Player.II if m == 1 else game.winner(
                    ef.PropPosition(m - 1, left, right), ef.GameMode.EXACT
                )
            self.check(
                at is ef.Player.I and below is ef.Player.II,
                f"exact-mode winners {at.value}/{below.value} at ranks {m}/{m - 1}",
            )
        # PropGame exposes no counter yet; its size table is the work it did
        entries = len(game._value)
        self.count("propgame.table_entries", entries)
        if q["family"] == "parity":
            self.check(m == KNOWN_SIZE[("parity", 4)], f"parity 4 minsize {m}")
            self.check(
                entries == PARITY4_TABLE_ENTRIES,
                f"parity 4 size table has {entries} entries, "
                f"baseline {PARITY4_TABLE_ENTRIES}",
            )

    # -- the command line ---------------------------------------------------

    def repro(self, q: dict) -> None:
        out = io.StringIO()
        with self.tracer.span("cli.repro"), contextlib.redirect_stdout(out):
            code = self.cli.run(["--json", *q["argv"]])
        if code == 2:
            prop = q["experiment"] == "parity"
            self.count("propgame.cap_errors" if prop else "fogame.cap_errors")
        if not self.check(code == 0, f"{' '.join(q['argv'])} exited {code}"):
            return
        report = json.loads(out.getvalue())
        certificate = report["certificate_bound"]
        construction = report["construction_size"]
        exact = report["exact_minsize"]
        known = KNOWN_SIZE.get((q["experiment"], q["n"]))
        if known is not None:
            self.check(exact == known, f"{q['argv']}: exact {exact}, known {known}")
        counter = None if q["experiment"] == "parity" else "fobounds.cert_violations"
        if exact is None:
            self.cert(
                certificate <= construction,
                f"{q['argv']}: certificate {certificate} exceeds construction {construction}",
                counter,
            )
        else:
            self.cert(
                certificate <= exact,
                f"{q['argv']}: certificate {certificate} > exact {exact}",
                counter,
            )
            self.check(exact <= construction, f"{q['argv']}: exact {exact} > construction {construction}")

    # -- linear orders ------------------------------------------------------

    def linorder(self, q: dict) -> None:
        ef = self.ef
        with self.tracer.span("fo.load"):
            left = ef.class_from_json(self._load(q["left"]))
            right = ef.class_from_json(self._load(q["right"]))
        mode, n, root = ef.FoMode(q["mode"]), q["n"], q["depth"] == 0
        with self.tracer.span("fobounds.construction"):
            sentence = ef.linorder_existential_sentence(n)
            construction = ef.fo_size(sentence)
        game = ef.FoGame()
        with self.tracer.span("fogame.minsize"):
            m = game.minsize(left, right, mode, construction)
        positions = game.positions_visited
        self.count("fogame.positions", positions)
        baseline = LINORDER_ROOT_POSITIONS.get((q["mode"], n)) if root else None
        if baseline is not None:
            self.check(
                positions == baseline,
                f"{q['mode']} linorder {n} visited {positions} positions, baseline {baseline}",
            )
        if not self.check(m is not None, f"no separator of size <= {construction}"):
            return
        with self.tracer.span("fogame.synth"):
            f = game.synthesize(left, right, m, mode)
        self.count("fogame.positions", game.positions_visited)
        with self.tracer.span("fo.verify"):
            ok = (
                f is not None
                and ef.fo_separates(f, left, right)
                and ef.fo_size(f) == m
                and (mode is ef.FoMode.FULL or ef.is_existential(f))
            )
            built = not root or ef.fo_separates(sentence, left, right)
        self.check(ok, f"the synthesized formula does not separate at size {m}")
        self.check(built, "the chain sentence does not separate the instance")
        if root:
            known = KNOWN_SIZE[("linorder", n)]
            self.check(m == known, f"{q['mode']} linorder {n}: minsize {m}, known {known}")
        if mode is ef.FoMode.EXISTENTIAL:
            with self.tracer.span("fobounds.measure"):
                bound = ef.measure_N(left, right)
            self.cert(
                bound <= m,
                f"linorder {n} depth {q['depth']}: measure_N {bound} exceeds the "
                f"exact existential size {m}",
                "fobounds.cert_violations",
            )

    # -- the tiny universe --------------------------------------------------

    def _tiny_pass(self, names: list[str], queries: list[dict]) -> None:
        """One shared solver and one formula enumerator per mode; each query
        is one left class against every class of the universe."""
        ef = self.ef
        with self.tracer.span("fo.load"):
            classes = [ef.class_from_json(self._load(name)) for name in names]
        by_name = dict(zip(names, classes))
        models = sorted(
            {st.model for cls in classes for st in cls.members},
            key=lambda model: model.sort_key(),
        )
        games, enums = {}, {}
        for mode, ranks in TINY_RANKS.items():
            with self.tracer.span("oracle.enum"):
                enums[mode] = ef.FoEnumerator(models, (), ranks, ef.FoMode(mode))
            games[mode] = ef.FoGame()
        positions = Counter()

        def one(q: dict) -> None:
            mode = q["mode"]
            left = by_name[q["left"]]
            for right in classes:
                positions[mode] += self._tiny_pair(q, left, right, games[mode], enums[mode])

        for q in queries:
            self.query(q, one)
        for mode, baseline in TINY_POSITIONS.items():
            self.check(
                positions[mode] == baseline,
                f"tiny universe, {mode}: {positions[mode]} positions, baseline {baseline}",
            )

    def _tiny_pair(self, q: dict, left, right, game, enum) -> int:
        ef = self.ef
        mode = ef.FoMode(q["mode"])
        with self.tracer.span("oracle.enum"):
            sep = enum.separator(left, right)
        if sep is not None:
            with self.tracer.span("fo.verify"):
                ok = ef.fo_separates(sep, left, right)
            self.check(ok, "the enumerated separator does not separate")
        best = None if sep is None else ef.fo_size(sep)
        wins, positions = [], 0
        for w in range(1, TINY_RANKS[q["mode"]] + 1):
            with self.tracer.span("fogame.winner"):
                who = game.winner(w, left, right, mode)
            positions += game.positions_visited
            wins.append(who is ef.Player.I)
        self.count("fogame.positions", positions)
        expected = [best is not None and best <= w for w in range(1, len(wins) + 1)]
        if wins != expected:
            self.count("oracle.mismatches")
            self.check(False, f"rank profile {wins} but the enumerator finds size {best}")
        return positions
