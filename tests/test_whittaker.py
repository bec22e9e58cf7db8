import itertools
from fractions import Fraction

import pytest

from superlink import (SuperlinkError, UnsupportedInputError, WhittakerCharacter, classify_simple,
                       dominant_partner, dot, in_X, in_X0, orbit_dot, upsilon_of)
from superlink.weights import Weight
import weyl_reference as ref


def zeta(datum, spec):
    return WhittakerCharacter.from_indices(datum, spec)


def test_support_validation(p2, red_a2):
    with pytest.raises(UnsupportedInputError):
        WhittakerCharacter.from_indices(p2, "2")  # p(2) has one simple root
    (outside,) = [r for r in red_a2.even_positive if r not in red_a2.simple_even]  # 1,0,-1
    with pytest.raises(UnsupportedInputError) as err:
        WhittakerCharacter.make(red_a2, [red_a2.simple_even[1], outside])
    assert str(err.value) == "zeta support must lie inside Pi_0"
    # the support is kept in Pi_0 order, once per root
    simple = red_a2.simple_even
    assert WhittakerCharacter.make(red_a2, simple[::-1] * 2).support == simple


def test_support_from_indices(p2, gl22):
    assert zeta(p2, "none").support == ()
    assert zeta(p2, "all").support == p2.simple_even
    assert zeta(gl22, "1").support == (gl22.simple_even[0],)


def test_classify_simple_examples(p2, gl21):
    lam = Weight([0, 0])
    z0 = zeta(p2, "none")
    assert classify_simple(p2, lam, z0).rep == lam
    zall = zeta(p2, "all")
    assert classify_simple(p2, lam, zall).rep == Weight([-1, 1])
    z1 = zeta(gl21, "1")
    assert classify_simple(gl21, gl21.parse_weight("0,-2|5"), z1).rep \
        == gl21.parse_weight("-3,1|5")


def test_classify_requires_integral(osp22, gl21):
    with pytest.raises(UnsupportedInputError):
        classify_simple(osp22, osp22.parse_weight("0;1/2"), zeta(osp22, "none"))
    for spec in ("none", "1"):  # its own text, not weyl's
        with pytest.raises(UnsupportedInputError) as err:
            classify_simple(gl21, gl21.parse_weight("1/3,0|0"), zeta(gl21, spec))
        assert str(err.value) == "simple-parameter classification needs an integral weight"


def test_classify_constant_on_orbits_injective_across(p3, gl22):
    for datum in (p3, gl22):
        n_simple = len(datum.simple_even)
        for mask in itertools.product([0, 1], repeat=n_simple):
            support = [datum.simple_even[i] for i in range(n_simple) if mask[i]]
            z = WhittakerCharacter.make(datum, support)
            seen = {}
            for coords in itertools.product(range(-2, 3), repeat=datum.dim):
                lam = Weight(coords)
                param = classify_simple(datum, lam, z)
                orbit = orbit_dot(datum, lam, z.support)
                assert all(classify_simple(datum, mu, z) == param for mu in orbit)
                if param.rep in seen:
                    assert lam in seen[param.rep]
                else:
                    seen[param.rep] = orbit


def test_upsilon_examples(p2, osp22):
    assert upsilon_of(p2, Weight([3, 0])) == ()
    assert [r.weight for r in upsilon_of(p2, Weight([-1, 0]))] == [Weight([1, -1])]
    assert [r.weight for r in upsilon_of(osp22, osp22.parse_weight("7;-1"))] \
        == [osp22.parse_weight("0;2")]
    with pytest.raises(UnsupportedInputError):
        upsilon_of(p2, Weight([-3, 0]))  # not dominant


def test_dominant_partner_examples(p2, gl22):
    assert dominant_partner(p2, zeta(p2, "none")) == Weight([0, 0])
    assert dominant_partner(p2, zeta(p2, "all")) == Weight([-1, 0])
    nu = dominant_partner(gl22, zeta(gl22, "1"))
    assert upsilon_of(gl22, nu) == (gl22.simple_even[0],)


@pytest.mark.parametrize("key", ["gl:2,2", "gl:3,1", "gl:2,1", "osp2:2", "osp2:3",
                                 "p:3", "p:4", "osp32", "red:A1,C2", "red:A2"])
def test_dominant_partner_round_trip_all_subsets(key):
    from superlink import build_root_datum
    if key == "osp32":
        datum = build_root_datum("osp32")
    else:
        fam, _, params = key.partition(":")
        if fam == "gl":
            m, n = map(int, params.split(","))
            datum = build_root_datum("gl", m=m, n=n)
        elif fam == "osp2":
            datum = build_root_datum("osp2", n=int(params))
        elif fam == "p":
            datum = build_root_datum("p", n=int(params))
        else:
            datum = build_root_datum("reductive", factors=params)
    n_simple = len(datum.simple_even)
    for mask in itertools.product([0, 1], repeat=n_simple):
        support = [datum.simple_even[i] for i in range(n_simple) if mask[i]]
        z = WhittakerCharacter.make(datum, support)
        nu = dominant_partner(datum, z)
        assert upsilon_of(datum, nu) == z.support


def test_in_x0(p2, gl22):
    nu = dominant_partner(p2, zeta(p2, "all"))  # (-1, 0)
    assert in_X0(p2, nu, nu)
    assert not in_X0(p2, nu, nu + Weight([Fraction(1, 2), 0]))  # off the coset
    assert in_X0(p2, nu, Weight([-3, 2]))  # lam+rho0 = (-2, 2): anti-dominant for W_nu
    assert not in_X0(p2, nu, Weight([2, -3]))
    # integral difference must hold coordinate-wise through the pairings
    nu2 = dominant_partner(gl22, zeta(gl22, "1"))
    assert in_X0(gl22, nu2, nu2)


def test_in_x_type_I_identity(p3, gl22, osp24):
    for datum in (p3, gl22, osp24):
        z = WhittakerCharacter.make(datum, datum.simple_even[:1])
        nu = dominant_partner(datum, z)
        for coords in itertools.product(range(-2, 2), repeat=datum.dim):
            lam = Weight(coords)
            assert in_X(datum, nu, lam) == in_X0(datum, nu, lam)


def test_in_x_osp32(osp32):
    nu = -osp32.rho0
    lam = Weight([Fraction(-1, 2), Fraction(-3, 2)]) - osp32.rho
    assert in_X(osp32, nu, lam)
    lam2 = Weight([Fraction(1, 2), Fraction(-1, 2)]) - osp32.rho
    assert not in_X(osp32, nu, lam2)
    with pytest.raises(UnsupportedInputError):
        in_X(osp32, Weight([0, 0]), lam)  # only the full-stabilizer nu is supported


def test_in_x_members_have_integral_difference(osp32):
    nu = -osp32.rho0
    for a in range(-3, 3):
        for b in range(-3, 3):
            lam = Weight([a, Fraction(2 * b - 1, 2)])
            if in_X0(osp32, nu, lam):
                from superlink import is_integral
                assert is_integral(osp32, lam - nu)


# gl(1..4|1..4), osp(2|2..10), p(2..6), osp(3|2) and A/C products
PARTNER_DATA = ([("gl", {"m": m, "n": n}) for m in range(1, 5) for n in range(1, 5)]
                + [("osp2", {"n": n}) for n in range(1, 6)]
                + [("p", {"n": n}) for n in range(2, 7)] + [("osp32", {})]
                + [("reductive", {"factors": f}) for f in
                   ("A1", "A3", "C1", "C3", "A1xC1", "A1xC2", "A2xC2", "C2xA2", "A3xC2")])


def _refused_partner(monkeypatch, datum):
    """Refuse datum's partner for the empty support, with upsilon_of patched
    to miss it; the patch is left in place."""
    from superlink import whittaker
    monkeypatch.setattr(whittaker, "upsilon_of", lambda datum, nu: (datum.simple_even[0],))
    with pytest.raises(SuperlinkError) as got:
        dominant_partner(datum, zeta(datum, "none"))
    return str(got.value)


def test_dominant_partner_refuses_a_failed_construction(monkeypatch):
    """A partner whose singular roots miss the support raises the library's
    own error, also under python -O, not an AssertionError.  The datum is
    built here: a partner kept on a shared one would skip the check."""
    from superlink import build_root_datum
    datum = build_root_datum("gl", m=2, n=2)
    assert _refused_partner(monkeypatch, datum) == "dominant partner construction failed"


def test_dominant_partner_does_not_keep_a_refusal(monkeypatch):
    """A refused construction is not kept: once upsilon_of is restored, the
    same datum builds its partner."""
    from superlink import build_root_datum
    datum = build_root_datum("gl", m=2, n=2)
    _refused_partner(monkeypatch, datum)
    monkeypatch.undo()
    z = zeta(datum, "none")
    assert dominant_partner(datum, z) == ref.dominant_partner(datum, z)


def test_dominant_partner_is_built_once_per_support(integrality_calls):
    """A second call on one support is a lookup: it proves no integrality and
    returns an equal partner."""
    from superlink import build_root_datum
    datum = build_root_datum("reductive", factors="A3,C2")
    z = zeta(datum, "1,4")
    first = dominant_partner(datum, z)
    assert integrality_calls
    integrality_calls.clear()
    assert dominant_partner(datum, z) == first
    assert integrality_calls == []


@pytest.mark.parametrize("family, params", PARTNER_DATA,
                         ids=["-".join([f, *map(str, p.values())]) for f, p in PARTNER_DATA])
def test_equal_data_build_equal_partners(monkeypatch, family, params):
    """An equal but distinct datum builds its own partner for every subset of
    Pi_0, equal to the first datum's."""
    from superlink import build_root_datum, whittaker
    built = []
    partner = whittaker._partner
    monkeypatch.setattr(whittaker, "_partner", lambda *args: built.append(args) or partner(*args))
    first, second = build_root_datum(family, **params), build_root_datum(family, **params)
    assert first == second and first is not second
    subsets = [s for k in range(len(first.simple_even) + 1)
               for s in itertools.combinations(range(1, len(first.simple_even) + 1), k)]
    for spec in subsets:
        assert dominant_partner(first, zeta(first, spec)) \
            == dominant_partner(second, zeta(second, spec)), spec
    assert len(built) == 2 * len(subsets)


@pytest.mark.parametrize("family, params", PARTNER_DATA,
                         ids=["-".join([f, *map(str, p.values())]) for f, p in PARTNER_DATA])
def test_dominant_partner_matches_reference(family, params):
    """The groups read off the support's `_runs` windows give the partner
    the chain-root grouping gives, on every subset of Pi_0."""
    from superlink import build_root_datum
    datum = build_root_datum(family, **params)
    simple = datum.simple_even
    for k in range(len(simple) + 1):
        for support in itertools.combinations(simple, k):
            z = WhittakerCharacter.make(datum, support)
            assert datum.format_weight(dominant_partner(datum, z)) \
                == datum.format_weight(ref.dominant_partner(datum, z)), support
