"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget (run with `pytest -s` to see the lines)."""
import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from superlink import (WhittakerCharacter, bilinear, block_label, build_root_datum,
                       builtin_verma_table, classify_simple, dot, gamma_summation_set, in_X,
                       is_antidominant, is_dominant, orbit_dot, stabilizer_roots,
                       verma_mult, weyl_order, whittaker_length, whittaker_mult)
from superlink.kl import FiniteWeylGroup, kl_polynomial
from superlink.oracle import WeightBox, kl_cross_check, kl_via_inversion, partition_box
from superlink.weights import Weight
from superlink.weyl import (WeylElement, antidominant_rep, length, longest_element,
                            reflection_element)
from weyl_reference import enumerate_subgroup


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s")


def test_criterion_1_p_block_counts(capsys):
    with criterion(1, "p(n) block counts: p(2) box [-6,6]^2 -> 3 components, "
                      "p(3) box [-4,4]^3 -> 4 components, constant labels", 70):
        import json

        from superlink.cli import main

        t0 = time.perf_counter()
        code = main(["validate", "--family", "p", "--n", "2", "--box", " -6..6"])
        assert time.perf_counter() - t0 < 10
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sound"] is True
        assert len(payload["components"]) == 3
        assert sorted(c["label"]["j"] for c in payload["components"]) == [0, 1, 2]

        t0 = time.perf_counter()
        code = main(["validate", "--family", "p", "--n", "3", "--box", " -4..4"])
        assert time.perf_counter() - t0 < 60
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sound"] is True
        assert len(payload["components"]) == 4
        assert sorted(c["label"]["j"] for c in payload["components"]) == [0, 1, 2, 3]

        # library-level cross-check of the same partitions
        p2 = build_root_datum("p", n=2)
        report = partition_box(p2, WeightBox.cube(2, -6, 6))
        assert report.sound and len(report.components) == 3


def test_criterion_2_gl_osp_label_soundness():
    with criterion(2, "gl(1|1)/gl(2|1)/osp(2|2) box oracle: labels constant on "
                      "components; equal labels connect after one enlargement", 120):
        cases = [
            (build_root_datum("gl", m=1, n=1), WeightBox.cube(2, -5, 5)),
            (build_root_datum("gl", m=2, n=1), WeightBox.cube(3, -4, 4)),
            (build_root_datum("osp2", n=1), WeightBox.cube(2, -5, 5)),
        ]
        for datum, box in cases:
            report = partition_box(datum, box, enlarge=True)
            assert report.sound, report.soundness_failures
            for split in report.label_splits:
                assert split["merged_after_enlargement"], split


def test_criterion_3_osp32_worked_example():
    with criterion(3, "osp(3|2): X(nu) reproduced exactly on a 20x20 grid; "
                      "chi label stable under +delta+eps on the atypical line", 5):
        osp32 = build_root_datum("osp32")
        nu = -osp32.rho0
        half = Fraction(1, 2)
        values = [half + k for k in range(10)] + [-half - k for k in range(10)]
        assert len(values) == 20
        step = Weight([1, 1])
        checked_atypical = 0
        for a in values:
            for b in values:
                lam = Weight([a, b]) - osp32.rho
                expected = a < 0 and b < 0  # a,b in -1/2 - Z_{>=0}
                assert in_X(osp32, nu, lam) == expected
                if expected and abs(a) == abs(b):
                    # inside X(nu) atypical means a == b
                    assert a == b
                    assert block_label(osp32, lam) \
                        == block_label(osp32, lam + step)
                    checked_atypical += 1
                if a == b:
                    # the whole a == b line is stable under +delta+eps
                    assert block_label(osp32, lam) \
                        == block_label(osp32, lam + step)
        assert checked_atypical == 10


def _kostant_samples():
    return {
        "A1": [Weight([k, 0]) for k in range(5)],
        "A2": [Weight([0, 0, 0]), Weight([1, 0, 0]), Weight([1, 0, -1]),
               Weight([2, 1, 0]), Weight([2, 0, -2])],
        "C2": [Weight([0, 0]), Weight([1, 0]), Weight([1, 1]),
               Weight([2, 0]), Weight([2, 1])],
    }


_WITNESS_CACHE: dict = {}


def _criterion4_witnesses():
    """(datum, mu, zeta) triples whose gamma sets criterion 8 audits."""
    if "c4" not in _WITNESS_CACHE:
        triples = []
        for factors, samples in _kostant_samples().items():
            datum = build_root_datum("reductive", factors=factors)
            zall = WhittakerCharacter.from_indices(datum, "all")
            z0 = WhittakerCharacter.from_indices(datum, "none")
            for lam in samples:
                for gamma in sorted(orbit_dot(datum, lam)):
                    triples.append((datum, gamma, z0))
                    triples.append((datum, gamma, zall))
        _WITNESS_CACHE["c4"] = triples
    return _WITNESS_CACHE["c4"]


def test_criterion_4_kostant_degeneration():
    with criterion(4, "A1/A2/C2: non-singular zeta gives length 1 on 5 regular "
                      "dominant samples; zeta=0 multiplicities equal Verma ones", 30):
        for factors, samples in _kostant_samples().items():
            datum = build_root_datum("reductive", factors=factors)
            zall = WhittakerCharacter.from_indices(datum, "all")
            z0 = WhittakerCharacter.from_indices(datum, "none")
            for lam in samples:
                assert is_dominant(datum, lam) and not stabilizer_roots(datum, lam)
                assert whittaker_length(datum, lam, zall) == 1
                base, _ = antidominant_rep(datum, lam)
                table = builtin_verma_table(datum, lam)
                for mu in sorted(orbit_dot(datum, lam)):
                    _, wit_mu = antidominant_rep(datum, mu)
                    for gamma in sorted(orbit_dot(datum, lam)):
                        _, wit_g = antidominant_rep(datum, gamma)
                        direct = verma_mult(datum, base, wit_mu.inverse(),
                                            wit_g.inverse())
                        assert whittaker_mult(datum, mu, gamma, z0, table) == direct
        assert _criterion4_witnesses()


def test_criterion_5_kl_engine():
    with criterion(5, "KL engine: cross-check empty on S2,S3,S4,C2; the pinned "
                      "S4 pair is 1+q both ways; degree bounds for |W| <= 120", 120):
        for W in (FiniteWeylGroup.symmetric(2), FiniteWeylGroup.symmetric(3),
                  FiniteWeylGroup.symmetric(4), FiniteWeylGroup.type_c(2)):
            report = kl_cross_check(W)
            assert report.ok, report.diffs
        S4 = FiniteWeylGroup.symmetric(4)
        s = S4.reflections
        w = s[1].compose(s[0]).compose(s[2]).compose(s[1])
        assert kl_polynomial(S4, s[1], w).coeffs == (1, 1)
        assert kl_via_inversion(S4)[(s[1].images, w.images)].coeffs == (1, 1)
        for W in (FiniteWeylGroup.symmetric(2), FiniteWeylGroup.symmetric(3),
                  FiniteWeylGroup.symmetric(4), FiniteWeylGroup.type_c(2),
                  FiniteWeylGroup.type_c(3), FiniteWeylGroup.symmetric(5)):
            assert W.order <= 120
            ell = {w: length(W.datum, w) for w in W.elements()}
            for x in W.elements():
                for y in W.elements():
                    p = kl_polynomial(W, x, y)
                    if not p.is_zero:
                        assert p.coeffs[0] == 1
                        if x != y:
                            assert p.degree <= (ell[y] - ell[x] - 1) // 2


RANK3 = ["p:3", "gl:2|2", "osp2:2", "osp32", "reductive:A1,C1"]


def _datum_by_key(key):
    if key == "osp32":
        return build_root_datum("osp32")
    fam, _, params = key.partition(":")
    if fam == "gl":
        m, n = map(int, params.split("|"))
        return build_root_datum("gl", m=m, n=n)
    if fam == "osp2":
        return build_root_datum("osp2", n=int(params))
    if fam == "p":
        return build_root_datum("p", n=int(params))
    return build_root_datum("reductive", factors=params)


def test_criterion_6_weyl_action_laws():
    with criterion(6, "dot-action group laws, anti-dominant representative "
                      "idempotence/orbit-constancy, orbit-stabilizer identity "
                      "(exhaustive rank <= 3, seeded rank 4)", 120):
        for key in RANK3:
            datum = _datum_by_key(key)
            elements = enumerate_subgroup(datum, datum.simple_even)
            assert len(elements) == weyl_order(datum)
            probes = [Weight([Fraction(3 - 2 * i, 2) for i in range(datum.dim)]),
                      Weight(list(range(datum.dim)))]
            for lam in probes:
                assert dot(datum, WeylElement.identity(datum.dim), lam) == lam
                for w1 in elements:
                    for w2 in elements:
                        assert dot(datum, w1.compose(w2), lam) \
                            == dot(datum, w1, dot(datum, w2, lam))
            rng = random.Random(613)
            for _ in range(10):
                lam = Weight([rng.randrange(-3, 4) for _ in range(datum.dim)])
                rep, w = antidominant_rep(datum, lam)
                assert dot(datum, w, lam) == rep
                assert antidominant_rep(datum, rep) == (rep, WeylElement.identity(datum.dim))
                orbit = orbit_dot(datum, lam)
                assert all(antidominant_rep(datum, mu)[0] == rep for mu in orbit)
                stab = enumerate_subgroup(datum, stabilizer_roots(datum, lam))
                assert len(orbit) * len(stab) == weyl_order(datum)
        # rank 4, fixed seed
        rng = random.Random(20240817)
        for datum in (build_root_datum("osp2", n=4), build_root_datum("gl", m=3, n=3)):
            refs = [reflection_element(datum, a) for a in datum.simple_even]

            def rand_element():
                w = WeylElement.identity(datum.dim)
                for _ in range(rng.randrange(0, 12)):
                    w = w.compose(rng.choice(refs))
                return w

            for _ in range(40):
                w1, w2 = rand_element(), rand_element()
                lam = Weight([rng.randrange(-6, 7) for _ in range(datum.dim)])
                assert dot(datum, w1.compose(w2), lam) \
                    == dot(datum, w1, dot(datum, w2, lam))
                rep, wit = antidominant_rep(datum, lam)
                assert dot(datum, wit, lam) == rep
                assert antidominant_rep(datum, rep)[0] == rep


def _criterion7_witnesses():
    if "c7" not in _WITNESS_CACHE:
        triples = []
        for datum in (build_root_datum("gl", m=2, n=2), build_root_datum("p", n=3)):
            n_simple = len(datum.simple_even)
            points = [Weight(c) for c in
                      itertools.product(range(-3, 4), repeat=datum.dim)]
            for mask in itertools.product([0, 1], repeat=n_simple):
                support = [datum.simple_even[i] for i in range(n_simple) if mask[i]]
                z = WhittakerCharacter.make(datum, support)
                seen = set()
                for lam in points:
                    rep = classify_simple(datum, lam, z).rep
                    if rep not in seen:
                        seen.add(rep)
                        triples.append((datum, lam, z))
        _WITNESS_CACHE["c7"] = triples
    return _WITNESS_CACHE["c7"]


def test_criterion_7_simple_parameterization():
    with criterion(7, "classification data constant exactly on W_zeta dot "
                      "orbits: all zeta, gl(2|2) and p(3), box [-3,3]", 60):
        for datum in (build_root_datum("gl", m=2, n=2), build_root_datum("p", n=3)):
            n_simple = len(datum.simple_even)
            points = [Weight(c) for c in
                      itertools.product(range(-3, 4), repeat=datum.dim)]
            for mask in itertools.product([0, 1], repeat=n_simple):
                support = [datum.simple_even[i] for i in range(n_simple) if mask[i]]
                z = WhittakerCharacter.make(datum, support)
                groups = {}
                for lam in points:
                    groups.setdefault(classify_simple(datum, lam, z).rep, []).append(lam)
                for rep, members in groups.items():
                    orbit = orbit_dot(datum, members[0], z.support)
                    # constancy and injectivity: the group is the orbit's box part
                    assert set(members) == {w for w in orbit if max(
                        abs(c) for c in w) <= 3}
                    gammas = [g for g in orbit if is_antidominant(datum, g, z.support)]
                    assert gammas == [rep]
        assert _criterion7_witnesses()


def test_criterion_8_gamma_singleton():
    with criterion(8, "Lemma-level gamma summation sets are singletons for "
                      "every integral weight exercised in criteria 4 and 7", 60):
        for datum, mu, zeta in _criterion4_witnesses():
            assert len(gamma_summation_set(datum, mu, zeta)) == 1
        for datum, mu, zeta in _criterion7_witnesses():
            assert len(gamma_summation_set(datum, mu, zeta)) == 1
