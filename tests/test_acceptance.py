"""Acceptance gate: eight criteria, one PASS/FAIL line each on stdout.

Run ``pytest -s tests/test_acceptance.py`` to watch the lines appear;
without -s they show up in the captured-output section of any failure.
"""

import contextlib
import io
import itertools
import json
import random
import time

import suites
from efgames import (
    FoGame,
    FoMode,
    GameMode,
    Player,
    PropGame,
    PropPosition,
    StringProperty,
    boolcomb_alternating_sentence,
    boolcomb_existential_sentence,
    boolcomb_instances,
    count_functions_up_to,
    density,
    fo_quantifier_rank,
    fo_separates,
    fo_size,
    is_existential,
    linorder_existential_sentence,
    linorder_instances,
    linorder_log_sentence,
    measure_M,
    measure_N,
    oracle_minsize,
    parity_property,
    separates,
    size,
)
from efgames.cli import run


def _check(num, label, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def _repro_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["--json", *argv])
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue())


def _width_two_pairs():
    strings = ["00", "01", "10", "11"]
    for assign in itertools.product((0, 1, 2), repeat=4):
        s = [x for x, a in zip(strings, assign) if a == 0]
        r = [x for x, a in zip(strings, assign) if a == 1]
        if s and r:
            yield (
                StringProperty.from_strings(2, s),
                StringProperty.from_strings(2, r),
            )


def test_criterion_1_parity_exact_values():
    def body():
        for n in (1, 2, 3):
            start = time.perf_counter()
            payload = _repro_json("repro", "parity", "--n", str(n))
            assert time.perf_counter() - start < 60
            if n == 1:
                assert payload["exact_minsize"] == 1
            elif n == 2:
                assert payload["exact_minsize"] == 4
            else:
                assert payload["certificate_bound"] == 9
                assert payload["construction_size"] <= 16
                assert 9 <= payload["exact_minsize"] <= 16

    _check(1, "parity exact values", body)


def test_criterion_2_density_certificate():
    def body():
        for n in range(1, 7):
            left, right = parity_property(n)
            pair = density(left, right)
            assert pair.left == n and pair.right == n
        assert suites.lemma_density_subadditivity(random.Random(2024), 500) == []

    _check(2, "density certificate", body)


def test_criterion_3_winner_threshold_equivalence():
    def body():
        start = time.perf_counter()
        game = PropGame(2)
        for sp, rp in _width_two_pairs():
            best = oracle_minsize(sp, rp)
            for w in range(1, 6):
                pos = PropPosition(w, sp, rp)
                exact = game.winner(pos, GameMode.EXACT)
                assert (exact is Player.I) == (best <= w)
                assert game.winner(pos, GameMode.REDUCED) is exact
        assert time.perf_counter() - start < 300

    _check(3, "winner threshold equivalence", body)


def test_criterion_4_oracle_cross_check():
    def body():
        game = PropGame(2)
        for smask in range(16):
            for rmask in range(16):
                sp, rp = StringProperty(2, smask), StringProperty(2, rmask)
                assert game.minsize(sp, rp) == oracle_minsize(sp, rp)
        game3 = PropGame(3)
        rng = random.Random(9001)
        for _ in range(10_000):
            sp, rp = suites.random_property_pair(rng, 3)
            assert game3.minsize(sp, rp) == oracle_minsize(sp, rp)
        for n in (1, 2, 3):
            for m in range(1, 11):
                assert count_functions_up_to(m, n) <= 2**m * (n + 2) ** (2 * m)

    _check(4, "oracle cross-check", body)


def test_criterion_5_combination_family():
    def body():
        start = time.perf_counter()
        for n in (1, 2, 3):
            left, right = boolcomb_instances(n)
            target = (n + 1) * 2**n
            f = boolcomb_existential_sentence(n)
            assert fo_size(f) == target
            assert is_existential(f)
            assert fo_separates(f, left, right)
            g = boolcomb_alternating_sentence(n)
            assert fo_size(g) == 8 * n + 4
            assert fo_separates(g, left, right)
            assert measure_M(left, right) == target
        left, right = boolcomb_instances(1)
        assert FoGame().minsize(left, right, FoMode.EXISTENTIAL, w_max=4) == 4
        assert time.perf_counter() - start < 600

    _check(5, "combination family", body)


def test_criterion_6_linear_orders():
    def body():
        for n in range(2, 9):
            left, right = linorder_instances(n)
            psi = linorder_existential_sentence(n)
            assert fo_size(psi) == 2 * n - 1
            assert is_existential(psi)
            assert fo_separates(psi, left, right)
            assert measure_N(left, right) == 2 * n - 1
            phi = linorder_log_sentence(n)
            assert fo_quantifier_rank(phi) == (n - 1).bit_length() + 1
            assert fo_separates(phi, left, right)
        assert FoGame().minsize(*linorder_instances(2), FoMode.EXISTENTIAL, w_max=3) == 3
        assert FoGame().minsize(*linorder_instances(3), FoMode.EXISTENTIAL, w_max=5) == 5

    _check(6, "linear orders", body)


def test_criterion_7_lemma_suites():
    def body():
        assert suites.lemma_literal_blindness(random.Random(31), 500) == []
        assert suites.lemma_measure_m_blindness() == []
        assert suites.lemma_measure_m_subadditivity(random.Random(32), 200) == []
        assert suites.lemma_measure_m_supplement() == []
        assert suites.lemma_measure_n_blindness() == []
        assert suites.lemma_measure_n_subadditivity(random.Random(33), 200) == []
        assert suites.lemma_measure_n_supplement() == []

    _check(7, "lemma suites", body)


def test_criterion_8_synthesis_soundness(tiny_fo_suite):
    def body():
        game = PropGame(2)
        for sp, rp in _width_two_pairs():
            k = game.minsize(sp, rp)
            for w in (k, k + 1):
                f = game.synthesize(sp, rp, w)
                assert f is not None and size(f) <= w
                assert separates(f, sp, rp)
        game3 = PropGame(3)
        rng = random.Random(77)
        for _ in range(300):
            sp, rp = suites.random_property_pair(rng, 3)
            k = game3.minsize(sp, rp)
            f = game3.synthesize(sp, rp, k)
            assert f is not None and size(f) <= k
            assert separates(f, sp, rp)
        for mode, (game_fo, records) in tiny_fo_suite.items():
            for rec in records:
                if rec.enum_best is None:
                    continue
                for w in {rec.enum_best, 4}:
                    f = game_fo.synthesize(rec.left, rec.right, w, mode)
                    assert f is not None and fo_size(f) <= w
                    assert fo_separates(f, rec.left, rec.right)
                    if mode is FoMode.EXISTENTIAL:
                        assert is_existential(f)
        f = FoGame().synthesize(*boolcomb_instances(1), 4, FoMode.EXISTENTIAL)
        assert f is not None and fo_size(f) <= 4
        assert fo_separates(f, *boolcomb_instances(1))
        for n, k in ((2, 3), (3, 5)):
            f = FoGame().synthesize(*linorder_instances(n), k, FoMode.EXISTENTIAL)
            assert f is not None and fo_size(f) <= k
            assert is_existential(f)
            assert fo_separates(f, *linorder_instances(n))

    _check(8, "synthesis soundness", body)
