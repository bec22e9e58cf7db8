import itertools
import random
from fractions import Fraction

import pytest

from superlink import (LinkStatus, Typicality, UnsupportedInputError, block_label,
                       build_root_datum, dot, same_block, typicality)
from superlink.blocks import chi_label_osp32, linkage_reflection
from superlink.root_data import bilinear
from superlink.weights import Weight
from superlink.weyl import dot_reflection


def test_typicality_examples(gl11, p2, osp32):
    for a in range(-3, 4):
        t = typicality(gl11, Weight([a, -a]))
        assert t.kind == "atypical" and t.degree == 1
    assert typicality(gl11, Weight([2, 1])).kind == "typical"
    assert typicality(p2, Weight([0, 0])).kind == "not-applicable"
    lam = Weight([Fraction(-1, 2), Fraction(-1, 2)]) - osp32.rho
    t = typicality(osp32, lam)
    assert t.kind == "atypical" and t.degree == 1


def test_typicality_degree_bounds(gl22, osp24, osp32):
    rng = random.Random(11)
    for _ in range(30):
        lam = Weight([rng.randrange(-4, 5) for _ in range(4)])
        t = typicality(gl22, lam)
        assert t.degree <= 2
    # a maximally atypical gl(2|2) weight: lam+rho annihilated by two
    # orthogonal isotropic roots
    target = Weight([1, 2, -2, -1]) - gl22.rho  # pairs (a1,b2), (a2,b1)
    assert typicality(gl22, target).degree == 2
    for _ in range(30):
        lam = Weight([rng.randrange(-4, 5) for _ in range(3)])
        assert typicality(osp24, lam).degree <= 1
        lam32 = Weight([rng.randrange(-4, 5), Fraction(rng.randrange(-5, 5), 2)])
        assert typicality(osp32, lam32).degree <= 1


def test_typicality_reductive_always_typical(red_a2):
    assert typicality(red_a2, Weight([3, 1, 0])).kind == "typical"


def _typicality_by_search(datum, lam):
    """Reference oracle: the most mutually orthogonal positive isotropic
    roots annihilating lam + rho, by exhaustive backtracking."""
    if datum.family == "p":
        return Typicality("not-applicable")
    shifted = lam + datum.rho
    candidates = [r.weight for r in datum.odd_positive
                  if r.isotropic and bilinear(datum, shifted, r.weight) == 0]
    best = 0

    def extend(chosen, rest):
        nonlocal best
        best = max(best, len(chosen))
        for i, w in enumerate(rest):
            if all(bilinear(datum, w, c) == 0 for c in chosen):
                extend(chosen + [w], rest[i + 1:])

    extend([], candidates)
    return Typicality("atypical", best) if best else Typicality("typical")


SEARCH_DATA = [("gl", {"m": 1, "n": 1}), ("gl", {"m": 2, "n": 1}), ("gl", {"m": 2, "n": 2}),
               ("gl", {"m": 3, "n": 2}), ("gl", {"m": 3, "n": 3}), ("gl", {"m": 4, "n": 4}),
               ("osp2", {"n": 1}), ("osp2", {"n": 2}), ("osp2", {"n": 3}), ("osp32", {}),
               ("p", {"n": 2}), ("p", {"n": 3}), ("reductive", {"factors": "A2"}),
               ("reductive", {"factors": "A1xC2"})]


@pytest.mark.parametrize("family,params", SEARCH_DATA,
                         ids=[f"{f}-{'-'.join(map(str, p.values()))}" for f, p in SEARCH_DATA])
def test_typicality_matches_backtracking(family, params):
    datum = build_root_datum(family, **params)
    rng = random.Random(f"{family}{sorted(params.items())}")
    for k in range(40):
        # lam + rho from a small range, so coincidences |a_i| = |b_j| are
        # frequent; integers, half-integers, then a mix with thirds
        denom = (1, 2, 3)[k % 3]
        mu = Weight([Fraction(rng.randrange(-3, 4), rng.choice((1, denom)))
                     for _ in range(datum.dim)])
        lam = mu - datum.rho
        assert typicality(datum, lam) == _typicality_by_search(datum, lam), lam


def test_typicality_gl66_maximally_atypical():
    gl66 = build_root_datum("gl", m=6, n=6)
    assert typicality(gl66, -gl66.rho) == Typicality("atypical", 6)


def test_gl_label_cancellation(gl21):
    lam = Weight([0, 0, 0])
    label = block_label(gl21, lam)
    # lam+rho = (0,-1|1): a = {0,-1}, -b = {-1}: one matched pair
    assert label.payload == ((Fraction(0),), (), 1)
    mu = lam - Weight([0, 1, 1]).scale(0)  # same weight
    assert block_label(gl21, mu) == label


def test_gl11_labels(gl11):
    # all atypical weights share the empty-core label
    labels = {block_label(gl11, Weight([a, -a])) for a in range(-5, 6)}
    assert len(labels) == 1
    # typical labels separate distinct weights
    assert block_label(gl11, Weight([1, 0])) != block_label(gl11, Weight([2, 0]))


def test_p_labels(p2):
    assert block_label(p2, Weight([0, 0])).to_json() == {"family": "p", "j": 1}
    assert block_label(p2, Weight([0, 2])).to_json() == {"family": "p", "j": 1}
    # (1,0)+rho0 = (2,0): no odd entries
    assert block_label(p2, Weight([1, 0])).to_json() == {"family": "p", "j": 0}
    # common fractional shift is normalized and reported
    shifted = block_label(p2, Weight([Fraction(1, 2), Fraction(-3, 2)]))
    assert shifted.to_json()["shift"] == "1/2"
    with pytest.raises(UnsupportedInputError):
        block_label(p2, Weight([0, Fraction(1, 2)]))  # not integral


def test_p_label_count(p3):
    labels = {block_label(p3, Weight(c)).payload[0]
              for c in itertools.product(range(-3, 4), repeat=3)}
    assert labels == {0, 1, 2, 3}


def test_osp2_labels(osp22):
    lam = osp22.parse_weight("0;-1")
    # lam+rho = (-1;0): |x|=1 not matching |d|=0 -> typical
    assert block_label(osp22, lam).payload[2] == 0
    atyp = osp22.parse_weight("2;-1")  # lam+rho = (1;0)+... check pairing below
    label = block_label(osp22, atyp)
    shifted = atyp + osp22.rho
    matched = any(abs(shifted[0]) == abs(c) for c in shifted.coords[1:])
    assert (label.payload[2] == 1) == matched


def test_osp32_chi_labels(osp32):
    rho = osp32.rho

    def lam_of(a, b):
        return Weight([Fraction(a), Fraction(b)]) - rho

    half = Fraction(1, 2)
    # sign flip of the eps coordinate
    assert chi_label_osp32(osp32, lam_of(-half, -3 * half)) \
        == chi_label_osp32(osp32, lam_of(-half, 3 * half))
    # the atypical line collapses
    assert chi_label_osp32(osp32, lam_of(-half, -half)) \
        == chi_label_osp32(osp32, lam_of(-3 * half, -3 * half))
    # distinct typical lines stay distinct
    assert chi_label_osp32(osp32, lam_of(-half, -3 * half)) \
        != chi_label_osp32(osp32, lam_of(-3 * half, -5 * half))
    # the two coordinates are never swapped by W
    assert chi_label_osp32(osp32, lam_of(half, 3 * half)) \
        != chi_label_osp32(osp32, lam_of(3 * half, half))


def test_osp32_label_matches_generated_relation(osp32):
    """Exhaustive check: label equality == reachability under the
    rho-shifted W moves and integer isotropic shifts, inside a box."""
    from superlink.oracle import WeightBox, bfs_linkage_closure, default_generators
    box = WeightBox((Fraction(-4), Fraction(-4)), (Fraction(4), Fraction(4)),
                    Fraction(1), (Fraction(0), Fraction(-1, 2)))
    gens = default_generators(osp32)
    points = list(box.points())
    comp = {}
    for seed in points:
        if seed not in comp:
            for w in bfs_linkage_closure(osp32, seed, box, gens):
                comp[w] = seed
    for lam in points:
        for mu in points:
            if comp[lam] == comp[mu]:
                assert chi_label_osp32(osp32, lam) == chi_label_osp32(osp32, mu)


def test_label_invariance_under_family_moves():
    from superlink import build_root_datum
    rng = random.Random(5)
    data = [build_root_datum("gl", m=2, n=1), build_root_datum("gl", m=2, n=2),
            build_root_datum("osp2", n=2), build_root_datum("p", n=3),
            build_root_datum("reductive", factors="A1,C1"),
            build_root_datum("osp32")]
    for datum in data:
        for _ in range(25):
            if datum.family == "osp32":
                lam = Weight([rng.randrange(-5, 6), Fraction(2 * rng.randrange(-5, 6) - 1, 2)])
            else:
                lam = Weight([rng.randrange(-5, 6) for _ in range(datum.dim)])
            base = block_label(datum, lam)
            for alpha in datum.simple_even:
                assert block_label(datum, linkage_reflection(datum, alpha, lam)) == base
            shifted = lam + datum.rho
            for root in datum.isotropic_roots:
                if bilinear(datum, shifted, root.weight) == 0:
                    for c in (-2, -1, 1, 3):
                        moved = lam - root.weight.scale(c)
                        assert block_label(datum, moved) == base
            if datum.family == "p":
                for k in range(datum.dim):
                    for step in (2, -2):
                        assert block_label(datum, lam.replace(k, lam[k] + step)) == base
                # same invariance on a fractional common coset
                shifted = lam + Weight([Fraction(1, 3)] * datum.dim)
                base_shifted = block_label(datum, shifted)
                for alpha in datum.simple_even:
                    moved = linkage_reflection(datum, alpha, shifted)
                    assert block_label(datum, moved) == base_shifted
                assert block_label(datum, shifted.replace(0, shifted[0] + 2)) \
                    == base_shifted


def test_dot_matches_linkage_move_except_osp32(p3, gl22, osp32):
    lam = Weight([2, 0, -1])
    for alpha in p3.simple_even:
        assert linkage_reflection(p3, alpha, lam) == dot_reflection(p3, alpha, lam)
    lam4 = Weight([1, 0, 0, -2])
    for alpha in gl22.simple_even:
        assert linkage_reflection(gl22, alpha, lam4) == dot_reflection(gl22, alpha, lam4)
    lam32 = Weight([2, Fraction(1, 2)])
    assert linkage_reflection(osp32, osp32.simple_even[0], lam32) \
        != dot_reflection(osp32, osp32.simple_even[0], lam32)


def test_same_block_statuses(p2, gl21, red_a1, osp32):
    lam = Weight([0, 0])
    assert same_block(p2, lam, lam) == LinkStatus.LINKED
    assert same_block(p2, lam, Weight([0, 2])) == LinkStatus.LINKED_SUFFICIENT_ONLY
    assert same_block(p2, lam, Weight([1, 0])) == LinkStatus.NO_LINK_KNOWN
    # gl: isotropic shift along a vanishing pairing stays linked
    lam_gl = Weight([0, 0, 0])
    alpha = Weight([0, 1, 1])  # e2 - e3 as coordinates: subtracting c*(e2-e3)
    for c in (1, 2, -3):
        mu = Weight([0, -c, c])  # lam - c(e2 - e3) in gl coordinates
        assert same_block(gl21, lam_gl, mu) == LinkStatus.LINKED
    assert same_block(gl21, lam_gl, Weight([1, 0, 0])) == LinkStatus.NOT_LINKED
    # reductive: dot-orbit mates are linked
    zero = Weight([0, 0])
    image = dot(red_a1, __import__("superlink").reflection_element(red_a1, red_a1.simple_even[0]), zero)
    assert same_block(red_a1, zero, image) == LinkStatus.LINKED
    assert same_block(red_a1, zero, Weight([1, 0])) == LinkStatus.NOT_LINKED
    # osp32 outside the supported grid refuses
    with pytest.raises(UnsupportedInputError):
        same_block(osp32, Weight([2, Fraction(1, 2)]), Weight([3, Fraction(1, 2)]))


def test_same_block_osp32_in_grid(osp32):
    half = Fraction(1, 2)
    lam = Weight([-half, -half]) - osp32.rho
    mu = Weight([-3 * half, -3 * half]) - osp32.rho
    assert same_block(osp32, lam, mu) == LinkStatus.LINKED
    other = Weight([-half, -3 * half]) - osp32.rho
    assert same_block(osp32, lam, other) == LinkStatus.NOT_LINKED


def test_label_json_is_canonical(p2, gl21):
    label = block_label(gl21, Weight([0, 0, 0]))
    assert label.json_str() == '{"family":"gl","coreA":["0"],"coreB":[],"atyp":1}'
    assert block_label(p2, Weight([0, 0])).json_str() == '{"family":"p","j":1}'
