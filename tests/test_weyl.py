import random
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from superlink import (CapExceededError, SuperlinkError, UnsupportedInputError, antidominant_rep,
                       build_root_datum, dot, is_antidominant,
                       is_dominant, longest_element, orbit_dot, reduced_word, reflect,
                       reflection_element, stabilizer_roots, weyl_order)
from superlink.weights import Weight
from superlink.root_data import _integer_frame
from superlink import weyl
from superlink.weyl import WeylElement, _parabolic_coroots, length, validate_element
import weyl_reference
from weyl_reference import dot_reflection, enumerate_subgroup, parabolic_positive_roots


def test_reflect_examples(p2, osp22):
    a = p2.simple_even[0]
    assert reflect(p2, a, a.weight) == -a.weight
    assert reflect(p2, a, Weight([3, 1])) == Weight([1, 3])
    two_d = osp22.even_positive[0]
    assert reflect(osp22, two_d, osp22.parse_weight("0;5")) == osp22.parse_weight("0;-5")


def test_reflect_involution(p3, osp24, gl22):
    for datum in (p3, osp24, gl22):
        probe = Weight([Fraction(i * i, 3) - 2 for i in range(datum.dim)])
        for alpha in datum.even_positive:
            once = reflect(datum, alpha, probe)
            assert reflect(datum, alpha, once) == probe


def test_dot_examples(p2):
    e = WeylElement.identity(2)
    lam = Weight([5, -7])
    assert dot(p2, e, lam) == lam
    s = reflection_element(p2, p2.simple_even[0])
    assert dot(p2, s, Weight([0, 0])) == Weight([-1, 1])
    # -rho0 is fixed by every element
    w0 = longest_element(p2)
    assert dot(p2, w0, -p2.rho0) == -p2.rho0


def test_dominance_examples(p2, gl21):
    assert is_dominant(p2, -p2.rho0) and is_antidominant(p2, -p2.rho0)
    assert is_dominant(p2, Weight([0, 0]))
    assert not is_antidominant(p2, Weight([0, 0]))
    assert is_antidominant(gl21, gl21.parse_weight("-2,0|0"), [gl21.simple_even[0]])


def test_antidominant_rep_examples(p2, gl21):
    rep, w = antidominant_rep(p2, Weight([0, 0]))
    assert rep == Weight([-1, 1])
    assert dot(p2, w, Weight([0, 0])) == rep
    rep_gl, w_gl = antidominant_rep(gl21, gl21.parse_weight("0,-2|5"), [gl21.simple_even[0]])
    assert rep_gl == gl21.parse_weight("-3,1|5")
    assert dot(gl21, w_gl, gl21.parse_weight("0,-2|5")) == rep_gl
    # fixed points return the identity witness
    rep2, w2 = antidominant_rep(p2, Weight([-1, 1]))
    assert rep2 == Weight([-1, 1]) and w2 == WeylElement.identity(2)


def test_antidominant_rep_requires_integral(osp22):
    with pytest.raises(UnsupportedInputError):
        antidominant_rep(osp22, osp22.parse_weight("0;1/3"))


def test_stabilizer_examples(p2, p3, osp22):
    assert stabilizer_roots(p2, Weight([5, 1])) == ()
    assert [r.weight for r in stabilizer_roots(p2, Weight([-1, 0]))] == [Weight([1, -1])]
    assert [r.weight for r in stabilizer_roots(osp22, osp22.parse_weight("0;-1"))] \
        == [osp22.parse_weight("0;2")]
    # stabilizer reflections generate the dot stabilizer
    lam = Weight([0, -1, -1])
    roots = stabilizer_roots(p3, lam)
    group = enumerate_subgroup(p3, roots)
    assert all(dot(p3, w, lam) == lam for w in group)


def test_group_queries_refuse_above_the_cap(monkeypatch):
    """p(9) has |W| = 9! = 362,880: length, longest_element and reduced_word
    refuse it from the closed-form order, before any index is built."""
    p9 = build_root_datum("p", n=9)
    e = WeylElement.identity(9)
    built = []
    init = weyl._Index.__init__
    monkeypatch.setattr(weyl._Index, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    start = time.perf_counter()
    for query in (lambda: length(p9, e), lambda: longest_element(p9),
                  lambda: reduced_word(p9, e)):
        with pytest.raises(CapExceededError, match="362880"):
            query()
    assert time.perf_counter() - start < 1
    assert built == []


def test_group_refusals_name_an_unprintable_order_by_its_formula():
    """Once |W| has more digits than Python prints as an int, every group
    query names it by its window formula and keeps CapExceededError: 400!
    has 869 digits, over the lowest limit Python allows (640)."""
    from superlink.kl import FiniteWeylGroup, shared_group
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        a399 = build_root_datum("reductive", factors="A399")
        e = WeylElement.identity(400)
        for query in (lambda: length(a399, e), lambda: longest_element(a399),
                      lambda: reduced_word(a399, e), lambda: FiniteWeylGroup(a399),
                      lambda: shared_group(a399)):
            with pytest.raises(CapExceededError) as err:
                query()
            assert str(err.value) == "|W| = 400! exceeds the cap 40320"
        with pytest.raises(CapExceededError) as err:  # a product, factors side by side
            weyl._refuse_above([("A", 400), ("C", 2)], 40320)
        assert str(err.value) == "|W| = 400! 2^2 2! exceeds the cap 40320"
        with pytest.raises(CapExceededError) as err:  # a printable order prints
            FiniteWeylGroup(build_root_datum("reductive", factors="A2xC2"), cap=47)
        assert str(err.value) == "|W| = 48 exceeds the cap 47"
    finally:
        sys.set_int_max_str_digits(limit)


def test_group_queries_refuse_foreign_elements(p2):
    flip = WeylElement((-1, 2))  # a sign change, outside the type A group of p(2)
    for query in (lambda: length(p2, flip), lambda: reduced_word(p2, flip)):
        with pytest.raises(UnsupportedInputError, match="not an element of the group"):
            query()


def test_longest_element_and_words(p3, osp24):
    w0 = longest_element(p3)
    word = reduced_word(p3, w0)
    assert len(word) == 3 == length(p3, w0)
    w0c = longest_element(osp24)
    assert length(osp24, w0c) == 4
    assert len(reduced_word(osp24, w0c)) == 4
    assert longest_element(p3, []) == WeylElement.identity(3)
    assert reduced_word(p3, WeylElement.identity(3)) == []
    # the word multiplies back to the element
    prod = WeylElement.identity(3)
    for alpha in word:
        prod = prod.compose(reflection_element(p3, alpha))
    assert prod == w0


def test_orbit_examples(p2, p3):
    assert orbit_dot(p2, -p2.rho0) == frozenset({-p2.rho0})
    assert orbit_dot(p2, Weight([0, 0])) == frozenset({Weight([0, 0]), Weight([-1, 1])})
    assert len(orbit_dot(p3, Weight([7, 3, 0]))) == 6


def test_cycles_round_trip():
    for images in [(1, 2, 3), (2, 1, 3), (-1, 2, 3), (2, 3, 1), (-2, -1, 3), (3, -1, -2)]:
        w = WeylElement(images)
        assert WeylElement.from_cycles(w.to_cycles(), 3) == w
    assert WeylElement.from_cycles("e", 2) == WeylElement.identity(2)
    assert WeylElement.from_cycles("(1 2)", 2).images == (2, 1)
    assert WeylElement.from_cycles("(1 -1)", 2).images == (-1, 2)
    a2xc2 = build_root_datum("reductive", factors="A2xC2")
    elements = enumerate_subgroup(a2xc2, a2xc2.simple_even)
    assert len(elements) == weyl_order(a2xc2) == 48
    for w in elements:
        assert WeylElement.from_cycles(w.to_cycles(), a2xc2.dim) == w


def test_cycles_grammar():
    # the identity spellings, and groups separated by spaces or commas
    for text in ("e", "", " ", "()", "1"):
        assert WeylElement.from_cycles(text, 3) == WeylElement.identity(3)
    for text in ("(1 2)", "(1,2)", "( 1 , 2 )", "(+1 2)", "(1 2)()", " (1 2) "):
        assert WeylElement.from_cycles(text, 3).images == (2, 1, 3)
    assert WeylElement.from_cycles("(1 2) (3 -3)", 3).images == (2, 1, -3)
    for text in ("garbage", "(1 2", "1 2)", "(1 2)x", "((1 2))", "(1,,2)",
                 "(1 2,)", "(1_0 2)", "(a b)", "2"):
        with pytest.raises(SuperlinkError, match="not a signed-cycle literal"):
            WeylElement.from_cycles(text, 3)


def test_validate_element(gl21, osp24):
    with pytest.raises(UnsupportedInputError):
        validate_element(gl21, WeylElement.from_cycles("(1 3)", 3))  # crosses blocks
    with pytest.raises(UnsupportedInputError):
        validate_element(gl21, WeylElement.from_cycles("(1 -1)", 3))  # sign in type A
    validate_element(osp24, WeylElement.from_cycles("(2 -2)", 3))


def _group_elements(datum):
    return enumerate_subgroup(datum, datum.simple_even)


RANK3_DATA = ["p,3", "gl,2|2", "osp2,2", "osp32", "reductive,A1xC1"]


def _datum_by_key(key):
    if key == "osp32":
        return build_root_datum("osp32")
    fam, _, params = key.partition(",")
    if fam == "gl":
        m, n = params.split("|")
        return build_root_datum("gl", m=int(m), n=int(n))
    if fam == "osp2":
        return build_root_datum("osp2", n=int(params))
    if fam == "p":
        return build_root_datum("p", n=int(params))
    return build_root_datum("reductive", factors=params)


@pytest.mark.parametrize("key", RANK3_DATA)
def test_dot_is_group_action_exhaustive(key):
    datum = _datum_by_key(key)
    elements = _group_elements(datum)
    assert len(elements) == weyl_order(datum)
    probes = [Weight([Fraction(3 - 2 * i, 2) for i in range(datum.dim)]),
              Weight(list(range(datum.dim)))]
    for lam in probes:
        assert dot(datum, WeylElement.identity(datum.dim), lam) == lam
        for w1 in elements:
            for w2 in elements:
                assert dot(datum, w1.compose(w2), lam) == dot(datum, w1, dot(datum, w2, lam))


def test_dot_group_action_rank4_seeded():
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
            assert dot(datum, w1.compose(w2), lam) == dot(datum, w1, dot(datum, w2, lam))
            assert bilinear_preserved(datum, w1)


def bilinear_preserved(datum, w):
    from superlink import bilinear
    basis = [Weight([1 if j == i else 0 for j in range(datum.dim)])
             for i in range(datum.dim)]
    return all(bilinear(datum, w.apply(u), w.apply(v)) == bilinear(datum, u, v)
               for u in basis for v in basis)


@pytest.mark.parametrize("key", RANK3_DATA)
def test_antidominant_rep_constant_on_orbits(key):
    datum = _datum_by_key(key)
    rng = random.Random(99)
    for _ in range(12):
        lam = Weight([rng.randrange(-4, 5) for _ in range(datum.dim)])
        rep, w = antidominant_rep(datum, lam)
        assert dot(datum, w, lam) == rep
        assert is_antidominant(datum, rep)
        # idempotent
        rep2, w2 = antidominant_rep(datum, rep)
        assert rep2 == rep and w2 == WeylElement.identity(datum.dim)
        orbit = orbit_dot(datum, lam)
        for mu in orbit:
            assert antidominant_rep(datum, mu)[0] == rep
        # exactly one anti-dominant point per integral orbit
        assert sum(1 for mu in orbit if is_antidominant(datum, mu)) == 1


@pytest.mark.parametrize("key", RANK3_DATA)
def test_orbit_stabilizer_identity(key):
    datum = _datum_by_key(key)
    rng = random.Random(7)
    order = weyl_order(datum)
    for _ in range(10):
        lam = Weight([rng.randrange(-3, 4) for _ in range(datum.dim)])
        orbit = orbit_dot(datum, lam)
        stab = enumerate_subgroup(datum, stabilizer_roots(datum, lam))
        assert len(orbit) * len(stab) == order


def test_parabolic_orbit_divides(p3):
    sub = [p3.simple_even[0]]
    assert len(orbit_dot(p3, Weight([4, 2, 0]), sub)) == 2
    assert weyl_order(p3, sub) == 2


def test_dot_reflection_matches_element(p3, osp24, osp32):
    for datum in (p3, osp24, osp32):
        lam = Weight([Fraction(2 * i - 1, 1) for i in range(datum.dim)])
        for alpha in datum.simple_even:
            s = reflection_element(datum, alpha)
            assert dot(datum, s, lam) == dot_reflection(datum, alpha, lam)


def test_parabolic_subsets_are_resolved_by_equality(red_a2, osp24):
    """A sub is matched against Pi_0 by equality: a root equal to a simple
    root but built apart is accepted, any other root is refused."""
    from superlink.root_data import Root
    from superlink.weyl import _resolve_sub
    for datum in (red_a2, osp24):
        for r in datum.simple_even:
            twin = Root(tuple((i, c) for i, c in r.vector), r.dim, r.parity, r.isotropic)
            assert twin == r and twin is not r
            assert _resolve_sub(datum, [twin]) == (twin,)
            assert parabolic_positive_roots(datum, [twin]) == parabolic_positive_roots(datum, [r])
        outside = [a for a in datum.even_positive if a not in datum.simple_even]
        for bad in [*outside, *datum.isotropic_roots[:1]]:
            with pytest.raises(UnsupportedInputError) as got:
                _resolve_sub(datum, [*datum.simple_even[:1], bad])
            assert str(got.value) == "parabolic subgroups are generated by subsets of Pi_0"
        assert outside  # both data have a non-simple even positive root


# every datum of the dot-orbit property test, and larger ones of each family
WINDOW_DATA = [("gl", {"m": 2, "n": 1}), ("gl", {"m": 2, "n": 2}), ("gl", {"m": 4, "n": 4}),
               ("osp2", {"n": 1}), ("osp2", {"n": 2}), ("osp2", {"n": 3}), ("p", {"n": 2}),
               ("p", {"n": 3}), ("p", {"n": 4}), ("osp32", {}),
               ("reductive", {"factors": "A2"}), ("reductive", {"factors": "C2"}),
               ("reductive", {"factors": "A1xC2"}), ("reductive", {"factors": "A3xC2"})]


@pytest.mark.parametrize("family, params", WINDOW_DATA,
                         ids=["-".join([f, *map(str, p.values())]) for f, p in WINDOW_DATA])
def test_parabolic_coroots_match_elimination(family, params):
    """The parabolic positive roots read off the `_runs` windows are those
    whose expansion over Pi_0 uses only the chosen simple roots, on every
    subset of Pi_0.  A type A window inside a type C block is where the
    rule must refuse the e_i + e_j."""
    datum = build_root_datum(family, **params)
    table = _integer_frame(datum).coroots
    simple = datum.simple_even
    for k in range(len(simple) + 1):
        for chosen in combinations(range(len(simple)), k):
            roots = parabolic_positive_roots(datum, [simple[j] for j in chosen])
            assert _parabolic_coroots(datum, chosen) \
                == tuple(table[datum.even_positive.index(a)] for a in roots), chosen


@pytest.mark.parametrize("family, params", WINDOW_DATA,
                         ids=["-".join([f, *map(str, p.values())]) for f, p in WINDOW_DATA])
def test_reflection_element_matches_fraction_reflection(family, params):
    """s(e_i) = e_i - c_i alpha on the integer root and coroot is the
    reflection of the unit weights through the Fraction `reflect`, for
    every even positive root; any other root is refused."""
    datum = build_root_datum(family, **params)
    for alpha in datum.even_positive:
        assert reflection_element(datum, alpha) == weyl_reference.reflection_element(datum, alpha)
    for alpha in datum.even_positive[:1]:
        negative = type(alpha)(tuple((i, -c) for i, c in alpha.vector), alpha.dim,
                               alpha.parity, alpha.isotropic)
        with pytest.raises(UnsupportedInputError, match="even positive roots"):
            reflection_element(datum, negative)
