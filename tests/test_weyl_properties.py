"""Property test: the dot-orbit machinery on integer shifted coordinates
agrees with its Fraction references (`weyl_reference`) and with the group
itself, on every family, every parabolic subset and integral, fractional-coset
and non-integral weights.  The anti-dominant representative, the stabilizer
roots and dominance are compared result for result, and refusal for refusal;
on integral weights, weyl's unchecked anti-dominant body agrees too."""
from fractions import Fraction
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import weyl_reference as ref  # noqa: E402
from superlink import (SuperlinkError, WeylElement, WhittakerCharacter,  # noqa: E402
                       antidominant_rep, build_root_datum, dot, gamma_summation_set,
                       is_antidominant, is_dominant, orbit_dot, stabilizer_roots)
from superlink.weights import Weight  # noqa: E402
from superlink.weyl import _antidominant_rep  # noqa: E402

DATA = [("gl", {"m": 2, "n": 1}), ("gl", {"m": 2, "n": 2}), ("osp2", {"n": 1}),
        ("osp2", {"n": 2}), ("p", {"n": 2}), ("p", {"n": 3}), ("osp32", {}),
        ("reductive", {"factors": "A2"}), ("reductive", {"factors": "C2"}),
        ("reductive", {"factors": "A1xC2"})]
COSETS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(-1, 4))


@st.composite
def weights(draw, datum):
    """An integral, fractional-coset or non-integral weight near the origin.

    A coset weight shifts each type A window by one fraction (osp(3|2): its
    e coordinate by 1/2), which keeps it integral; a non-integral one adds
    arbitrary fractions to some coordinates."""
    coords = [Fraction(c) for c in draw(st.lists(st.integers(-3, 3),
                                                 min_size=datum.dim, max_size=datum.dim))]
    kind = draw(st.sampled_from(["integral", "coset", "non-integral"]))
    if kind == "coset":
        for block, start, size in datum.blocks:
            if block == "A":
                c = draw(st.sampled_from(COSETS))
                for i in range(start, start + size):
                    coords[i] += c
        if datum.family == "osp32":
            coords[1] += Fraction(1, 2)
    elif kind == "non-integral":
        for i in range(datum.dim):
            coords[i] += Fraction(draw(st.integers(0, 4)), draw(st.integers(2, 5)))
    return Weight(coords)


def _outcome(f, *args):
    """f(*args), or the type and message of the SuperlinkError it raises."""
    try:
        return f(*args)
    except SuperlinkError as exc:
        return type(exc), str(exc)


def _subsets(datum):
    simple = datum.simple_even
    return [sub for k in range(len(simple) + 1) for sub in combinations(simple, k)]


@pytest.mark.parametrize("family, params", DATA,
                         ids=["-".join([f, *map(str, p.values())]) for f, p in DATA])
def test_orbit_machinery_matches_references(family, params, hypothesis_home):
    datum = build_root_datum(family, **params)
    subsets = _subsets(datum)
    groups = {sub: ref.enumerate_subgroup(datum, sub) for sub in subsets}

    @settings(database=None, derandomize=True, max_examples=25, deadline=None)
    @given(weights(datum))
    def agrees(lam):
        assert orbit_dot(datum, lam) == ref.orbit_dot(datum, lam)
        assert is_antidominant(datum, lam) == ref.is_antidominant(datum, lam)
        assert is_dominant(datum, lam) == ref.is_dominant(datum, lam)
        assert _outcome(stabilizer_roots, datum, lam) == _outcome(ref.stabilizer_roots, datum, lam)
        full = _outcome(antidominant_rep, datum, lam)
        if isinstance(full[1], WeylElement):  # the unchecked body, without sub
            assert _antidominant_rep(datum, lam) == full
        identity = WeylElement.identity(datum.dim)
        for sub in subsets:
            found = _outcome(antidominant_rep, datum, lam, sub)
            assert found == _outcome(ref.antidominant_rep, datum, lam, sub)
            if isinstance(found[1], WeylElement):
                rep, w = found
                assert dot(datum, w, lam) == rep
                assert antidominant_rep(datum, rep, sub) == (rep, identity)
                assert _antidominant_rep(datum, lam, sub) == found
            orbit = orbit_dot(datum, lam, sub)
            assert orbit == ref.orbit_dot(datum, lam, sub)
            assert orbit == {dot(datum, w, lam) for w in groups[sub]}
            for mu in orbit:
                assert is_antidominant(datum, mu, sub) == ref.is_antidominant(datum, mu, sub)
            zeta = WhittakerCharacter.make(datum, sub)
            assert gamma_summation_set(datum, lam, zeta) \
                == ref.gamma_summation_set(datum, lam, zeta)

    agrees()
