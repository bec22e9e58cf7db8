import itertools
from fractions import Fraction

import pytest

import root_data_reference as ref
from superlink import (ConstructionError, UnsupportedInputError, bilinear,
                       build_root_datum, is_integral, pairing_coroot, reflect)
from superlink.weights import Weight


def test_p2_weyl_vector(p2):
    assert p2.rho0 == Weight([1, 0])
    assert p2.rho == p2.rho0 - p2.rho1


def test_osp32_weyl_vector(osp32):
    assert osp32.rho == Weight([Fraction(-1, 2), Fraction(1, 2)])
    assert osp32.rho0 == Weight([1, Fraction(1, 2)])


def test_gl11_degenerate(gl11):
    assert gl11.simple_even == ()
    odd = {r.weight for r in gl11.odd_roots}
    assert odd == {Weight([1, -1]), Weight([-1, 1])}
    assert all(r.isotropic for r in gl11.odd_roots)


def test_gl_signature_and_form(gl11, gl21):
    assert gl21.form_signature == (1, 1, -1)
    e1, e2, e3 = (Weight([1, 0, 0]), Weight([0, 1, 0]), Weight([0, 0, 1]))
    assert bilinear(gl21, e1, e2) == 0
    assert bilinear(gl21, e3, e3) == -1
    assert bilinear(gl21, Weight([0, 0, 0]), e1) == 0
    assert bilinear(gl11, Weight([1, 0]), Weight([0, 1])) == 0


def test_osp32_form(osp32):
    # <d,d> = -1, <e,e> = 1, <d,e> = 0, so d-e is isotropic (it is one of
    # the two odd directions the atypicality tests walk along)
    d, e = Weight([1, 0]), Weight([0, 1])
    assert bilinear(osp32, d, d) == -1
    assert bilinear(osp32, e, e) == 1
    assert bilinear(osp32, d, e) == 0
    assert bilinear(osp32, d - e, d - e) == 0
    assert bilinear(osp32, d + e, d + e) == 0


def test_rho0_is_half_sum_for_gl_osp(gl22, osp24):
    for datum in (gl22, osp24):
        total = Weight([0] * datum.dim)
        for r in datum.even_positive:
            total = total + r.weight
        assert datum.rho0 == total.scale(Fraction(1, 2))


def test_pairing_coroot_examples(p2, osp22):
    for datum in (p2, osp22):
        for alpha in datum.even_positive:
            assert pairing_coroot(datum, alpha.weight, alpha) == 2
    assert pairing_coroot(p2, Weight([3, 1]), p2.simple_even[0]) == 2
    two_d = osp22.even_positive[0]
    assert pairing_coroot(osp22, osp22.parse_weight("0;5"), two_d) == 5


def test_pairing_rejects_isotropic(gl11):
    iso = gl11.odd_roots[0]
    with pytest.raises(UnsupportedInputError):
        pairing_coroot(gl11, Weight([1, 0]), iso)


def test_is_integral(p2, osp22):
    assert is_integral(p2, Weight([Fraction(1, 2), Fraction(-3, 2)]))
    assert is_integral(p2, Weight([0, 0]))
    assert not is_integral(osp22, osp22.parse_weight("0;1/3"))
    # the eps coordinate of osp(2|2n) is unconstrained
    assert is_integral(osp22, osp22.parse_weight("1/3;2"))


def test_is_isotropic(gl11, osp32, p2):
    def isotropic(datum, w):
        return bilinear(datum, w, w) == 0

    assert isotropic(gl11, Weight([1, -1]))
    for alpha in p2.simple_even:
        assert not isotropic(p2, alpha.weight)
    delta = Weight([1, 0])
    assert not isotropic(osp32, delta)
    assert isotropic(osp32, Weight([1, 1]))


def test_root_counts():
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        gl = build_root_datum("gl", m=m, n=n)
        assert len(gl.odd_roots) == 2 * m * n
        assert all(r.isotropic for r in gl.odd_roots)
    for n in [1, 2, 3]:
        osp = build_root_datum("osp2", n=n)
        assert len(osp.odd_roots) == 4 * n
        assert all(r.isotropic for r in osp.odd_roots)
    for n in [2, 3, 4]:
        p = build_root_datum("p", n=n)
        plus = [r for r in p.odd_positive]
        minus = [r for r in p.odd_roots if r not in plus]
        assert len(plus) == n * (n + 1) // 2
        assert len(minus) == n * (n - 1) // 2
        assert not p.isotropic_roots


def test_simple_roots_even_non_isotropic():
    for datum in [build_root_datum("gl", m=2, n=2), build_root_datum("osp2", n=2),
                  build_root_datum("p", n=3), build_root_datum("osp32"),
                  build_root_datum("reductive", factors="A1,C2")]:
        for alpha in datum.simple_even:
            assert alpha.parity == "even"
            assert not alpha.isotropic
            assert pairing_coroot(datum, alpha.weight, alpha) == 2


def test_form_invariant_under_simple_reflections():
    for datum in [build_root_datum("gl", m=2, n=2), build_root_datum("osp2", n=2),
                  build_root_datum("p", n=3), build_root_datum("osp32")]:
        basis = [Weight([1 if j == i else 0 for j in range(datum.dim)])
                 for i in range(datum.dim)]
        for alpha in datum.simple_even:
            for u in basis:
                for v in basis:
                    lhs = bilinear(datum, reflect(datum, alpha, u),
                                   reflect(datum, alpha, v))
                    assert lhs == bilinear(datum, u, v)


def test_construction_errors():
    with pytest.raises(ConstructionError):
        build_root_datum("gl", m=0, n=1)
    with pytest.raises(ConstructionError):
        build_root_datum("gl", m=2)
    with pytest.raises(ConstructionError):
        build_root_datum("p", n=1)
    with pytest.raises(ConstructionError):
        build_root_datum("q", n=2)
    with pytest.raises(ConstructionError):
        build_root_datum("reductive", factors="B2")
    with pytest.raises(ConstructionError):
        build_root_datum("reductive", factors="")


def test_weight_literal_round_trip(gl21, osp24, p3, osp32):
    cases = [(gl21, "3,-1|2"), (osp24, "0;1/2,-3/2"), (p3, "1,0,-2"), (osp32, "-1,-1/2")]
    for datum, text in cases:
        w = datum.parse_weight(text)
        assert datum.format_weight(w) == text
        assert datum.parse_weight(datum.format_weight(w)) == w


REFERENCE_DATA = ([("gl", {"m": m, "n": n}) for m in range(1, 5) for n in range(1, 5)]
                  + [("osp2", {"n": n}) for n in range(1, 6)]
                  + [("p", {"n": n}) for n in range(2, 9)] + [("osp32", {})])
FACTORS = [(kind, rank) for kind in "AC" for rank in range(1, 4)]


def _matches_reference(datum, expected):
    assert ref.fields(datum) == expected
    assert datum.describe() == ref.describe(expected)
    for r in (*datum.even_positive, *datum.odd_roots, *datum.odd_positive):
        assert r.vector == tuple((i, int(c)) for i, c in enumerate(r.weight) if c)


@pytest.mark.parametrize("family, params", REFERENCE_DATA,
                         ids=["-".join([f, *map(str, p.values())]) for f, p in REFERENCE_DATA])
def test_builders_match_fraction_reference(family, params):
    """Every field of the sparse-integer build, root order included, equals
    the dense Fraction build's, and so does describe(); each root vector is
    the sparse form of its weight."""
    builder = getattr(ref, f"build_{family}")
    _matches_reference(build_root_datum(family, **params), builder(**params))


@pytest.mark.parametrize("count", [1, 2, 3])
def test_reductive_builders_match_fraction_reference(count):
    """The same on every product of `count` A/C factors of rank at most 3."""
    for factors in itertools.product(FACTORS, repeat=count):
        _matches_reference(build_root_datum("reductive", factors=factors),
                           ref.build_reductive(list(factors)))


def test_building_a_datum_makes_no_dense_roots(monkeypatch):
    """p(30) has 1,335 roots; the build constructs a handful of weights (rho0
    and rho), not one per root."""
    calls = []
    init = Weight.__init__
    monkeypatch.setattr(Weight, "__init__", lambda self, coords: calls.append(1) or init(self, coords))
    build_root_datum("p", n=30)
    assert len(calls) <= 8
