import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from superlink import (DimensionMismatchError, LinkStatus, SuperlinkError, Typicality,
                       UnsupportedInputError, WhittakerCharacter, antidominant_rep,
                       block_label, build_root_datum, classify_simple, dominant_partner, dot,
                       in_X0, same_block, stabilizer_roots, typicality, upsilon_of)
from superlink.blocks import BlockLabel
from superlink.oracle import WeightBox, partition_box
from superlink.root_data import bilinear, is_integral
from superlink.weights import Weight
from oracle_reference import box_points, linkage_reflection, p_shift
import weyl_reference
from weyl_reference import dot_reflection


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
    assert block_label(osp32, lam_of(-half, -3 * half)) \
        == block_label(osp32, lam_of(-half, 3 * half))
    # the atypical line collapses
    assert block_label(osp32, lam_of(-half, -half)) \
        == block_label(osp32, lam_of(-3 * half, -3 * half))
    # distinct typical lines stay distinct
    assert block_label(osp32, lam_of(-half, -3 * half)) \
        != block_label(osp32, lam_of(-3 * half, -5 * half))
    # the two coordinates are never swapped by W
    assert block_label(osp32, lam_of(half, 3 * half)) \
        != block_label(osp32, lam_of(3 * half, half))


def test_osp32_label_matches_generated_relation(osp32):
    """Exhaustive check: label equality == reachability under the
    rho-shifted W moves and integer isotropic shifts, inside a box."""
    from superlink.oracle import WeightBox, bfs_linkage_closure
    box = WeightBox((Fraction(-4), Fraction(-4)), (Fraction(4), Fraction(4)),
                    (Fraction(0), Fraction(-1, 2)))
    points = box_points(box)
    comp = {}
    for seed in points:
        if seed not in comp:
            for w in bfs_linkage_closure(osp32, seed, box):
                comp[w] = seed
    for lam in points:
        for mu in points:
            if comp[lam] == comp[mu]:
                assert block_label(osp32, lam) == block_label(osp32, mu)


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
                        assert block_label(datum, p_shift(lam, k, step)) == base
                # same invariance on a fractional common coset
                shifted = lam + Weight([Fraction(1, 3)] * datum.dim)
                base_shifted = block_label(datum, shifted)
                for alpha in datum.simple_even:
                    moved = linkage_reflection(datum, alpha, shifted)
                    assert block_label(datum, moved) == base_shifted
                assert block_label(datum, p_shift(shifted, 0, 2)) \
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


def _query_weights(rng, datum):
    """Two integral weights that same_block decides: for osp(3|2), two of
    the X(nu) grid, lam + rho = (a, b) with a, b in -1/2 - N."""
    if datum.family == "osp32":
        half = Fraction(1, 2)
        return [Weight([-half - rng.randrange(4), -half - rng.randrange(4)]) - datum.rho
                for _ in range(2)]
    return [Weight([rng.randrange(-3, 4) for _ in range(datum.dim)]) for _ in range(2)]


def test_same_block_proves_integrality_once(integrality_calls, gl22, osp24, p3, osp32):
    """same_block proves each weight integral once and compares the labels'
    unchecked bodies: 2 is_integral calls per query with lam != mu, where
    block_label and antidominant_rep each proved it again (4).  Its
    refusals keep their type and text."""
    rng = random.Random(25)
    red = build_root_datum("reductive", factors="A2,C1")
    for datum in (gl22, osp24, p3, osp32, red):
        queries = 0
        for _ in range(12):
            lam, mu = _query_weights(rng, datum)
            if lam == mu:
                continue
            integrality_calls.clear()
            same_block(datum, lam, mu)
            assert len(integrality_calls) == 2
            queries += 1
        assert queries
    half = Fraction(1, 2)
    zero = Weight([0, 0, 0, 0])
    non_integral = (UnsupportedInputError, "block labels are defined for integral weights")
    for lam, mu, expected in (
            (Weight([half, 0, 0, 0]), zero, non_integral),
            (zero, Weight([0, half, 0, 0]), non_integral),
            (zero, Weight([0, 0, 0]), (DimensionMismatchError, "gl(2|2) expects 4 coordinates, got 3"))):
        with pytest.raises(SuperlinkError) as got:
            same_block(gl22, lam, mu)
        assert (type(got.value), str(got.value)) == expected
    with pytest.raises(SuperlinkError) as got:
        same_block(osp32, Weight([2, half]), Weight([3, half]))
    assert (type(got.value), str(got.value)) == (
        UnsupportedInputError, "osp(3|2) block membership is decided only inside the X(nu) grid")


def _upsilon_query(datum, lam, zeta):
    nu = dominant_partner(datum, zeta)
    return upsilon_of(datum, nu), in_X0(datum, nu, lam)


# is_integral calls per query of each sweep kind (bench/ops.py).  ups needs
# 4, each a public entry's own validation: dominant_partner's self-check
# through upsilon_of, upsilon_of itself, and in_X0's upsilon_of and its
# test of lam - nu.
SWEEP_BUDGETS = {
    "classify": (1, lambda d, lam, mu, zeta: classify_simple(d, lam, zeta)),
    "block_label": (1, lambda d, lam, mu, zeta: block_label(d, lam)),
    "same_block": (2, lambda d, lam, mu, zeta: same_block(d, lam, mu)),
    "antidom": (1, lambda d, lam, mu, zeta: antidominant_rep(d, lam, zeta.support)),
    "stab": (1, lambda d, lam, mu, zeta: stabilizer_roots(d, lam)),
    "typicality": (0, lambda d, lam, mu, zeta: typicality(d, lam)),
    "ups": (4, lambda d, lam, mu, zeta: _upsilon_query(d, lam, zeta)),
}
SWEEP_DATA = [("gl", {"m": 2, "n": 2}), ("gl", {"m": 3, "n": 2}), ("gl", {"m": 4, "n": 4}),
              ("osp2", {"n": 3}), ("p", {"n": 4}), ("osp32", {}),
              ("reductive", {"factors": "A3,C2"})]


@pytest.mark.parametrize("family,params", SWEEP_DATA, ids=lambda v: str(v))
def test_sweep_queries_keep_their_integrality_budget(integrality_calls, family, params):
    """Each sweep query kind makes exactly its budget of is_integral calls on
    integral weights, so a re-proof creeping back into a query fails here."""
    datum = build_root_datum(family, **params)
    rng = random.Random(f"budget:{family}:{sorted(params.items())}")
    zeta = WhittakerCharacter.from_indices(datum, "1")
    for _ in range(3):
        lam, mu = _query_weights(rng, datum)
        spent = {}
        for kind, (_, query) in SWEEP_BUDGETS.items():
            integrality_calls.clear()
            query(datum, lam, mu, zeta)
            spent[kind] = len(integrality_calls)
        assert spent == {kind: budget for kind, (budget, _) in SWEEP_BUDGETS.items()}


def test_label_json_is_canonical(p2, gl21):
    label = block_label(gl21, Weight([0, 0, 0]))
    assert label.json_str() == '{"family":"gl","coreA":["0"],"coreB":[],"atyp":1}'
    assert block_label(p2, Weight([0, 0])).json_str() == '{"family":"p","j":1}'


# -- the integer label body against the Fraction bodies it replaced ------------

def _reference_cancel(a_vals, b_vals):
    count_a, count_b = Counter(a_vals), Counter(b_vals)
    k = sum(min(count_a[v], count_b[v]) for v in count_a)
    surv_a, surv_b = count_a.copy(), count_b.copy()
    for v in count_a:
        m = min(count_a[v], count_b[v])
        surv_a[v] -= m
        surv_b[v] -= m
    return (tuple(sorted(surv_a.elements())), tuple(sorted(surv_b.elements())), k)


def _fractional(x):
    return x - (x.numerator // x.denominator)


def _reference_label(datum, lam):
    """block_label in Fraction arithmetic, as computed before the label body
    moved to integer coordinates; for reductive data, the Fraction
    anti-dominant representative of weyl_reference."""
    datum.check_dim(lam)
    if datum.family == "reductive":
        return BlockLabel("reductive", weyl_reference.antidominant_rep(datum, lam)[0].coords)
    if not is_integral(datum, lam):
        raise UnsupportedInputError("block labels are defined for integral weights")
    if datum.family == "gl":
        m = datum.params[0]
        mu = lam + datum.rho
        neg_b = tuple(-c for c in mu.coords[m:])
        return BlockLabel("gl", _reference_cancel(mu.coords[:m], neg_b))
    if datum.family == "osp2":
        mu = lam + datum.rho
        x, d = mu[0], [abs(c) for c in mu.coords[1:]]
        if abs(x) in d:
            d.remove(abs(x))
            return BlockLabel("osp2", (tuple(sorted(d)), _fractional(x), 1))
        return BlockLabel("osp2", (tuple(sorted(d)), x, 0))
    if datum.family == "p":
        shift = _fractional(lam[0])
        normalized = lam - Weight([1] * datum.dim).scale(shift)
        if any(c.denominator != 1 for c in normalized):
            raise UnsupportedInputError(
                "p(n) labels need coordinates in a common coset c + Z")
        mu = normalized + datum.rho0
        return BlockLabel("p", (sum(1 for c in mu if c.numerator % 2 != 0), shift))
    a, b = (lam + datum.rho).coords  # osp32
    if abs(a) == abs(b):
        return BlockLabel("osp32", (1, _fractional(abs(a))))
    return BlockLabel("osp32", (0, (abs(a), abs(b))))


# (family, builder params, the cosets of the coordinates integral weights may take)
REFERENCE_DATA = [
    ("gl", {"m": 1, "n": 1}, [Fraction(1, 2), Fraction(1, 3)]),
    ("gl", {"m": 2, "n": 2}, [0]), ("gl", {"m": 3, "n": 2}, [0]),
    ("osp2", {"n": 1}, [0]), ("osp2", {"n": 2}, [0]),
    ("p", {"n": 2}, [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]),
    ("p", {"n": 3}, [Fraction(1, 3), Fraction(2, 3)]), ("p", {"n": 4}, [Fraction(1, 2)]),
    ("osp32", {}, [0]),
    ("reductive", {"factors": "A2"}, [0, Fraction(1, 2), Fraction(1, 3)]),
    ("reductive", {"factors": "C2"}, [0]), ("reductive", {"factors": "A1,C1"}, [0]),
]


def _integral_weight(rng, datum, coset):
    """A random integral weight near the origin, its coordinates (or, where
    the family allows it, some of them) in coset + Z."""
    coords = [coset + rng.randrange(-4, 5) for _ in range(datum.dim)]
    if datum.family == "gl" and coset:  # one block in a coset, the other free
        coords[0] = rng.choice([0, coset]) + rng.randrange(-4, 5)
    if datum.family == "osp2":  # x is free, the d's integral
        coords[0] = rng.choice([0, Fraction(1, 2), Fraction(-1, 3)]) + rng.randrange(-4, 5)
    if datum.family == "osp32":  # d integral, e in (1/2) Z
        coords[1] = Fraction(rng.randrange(-9, 10), 2)
    # a third of the weights atypical, where the family has atypicality
    if datum.family in ("gl", "osp2", "osp32") and rng.random() < 0.35:
        mu = (Weight(coords) + datum.rho).coords
        if datum.family == "gl":
            m = datum.params[0]
            i, j = rng.randrange(m), rng.randrange(m, datum.dim)
            coords[j] = -mu[i] - datum.rho[j]
        elif datum.family == "osp2":
            i = rng.randrange(1, datum.dim)
            coords[0] = rng.choice([1, -1]) * mu[i] - datum.rho[0]
        else:
            coords[1] = rng.choice([1, -1]) * mu[0] - datum.rho[1]
    lam = Weight(coords)
    assert is_integral(datum, lam)
    return lam


@pytest.mark.parametrize("family,params,cosets", REFERENCE_DATA, ids=lambda v: str(v))
def test_label_matches_fraction_reference(family, params, cosets):
    datum = build_root_datum(family, **params)
    rng = random.Random(f"label:{family}:{sorted(params.items())}")
    atypical = 0
    for _ in range(150):
        lam = _integral_weight(rng, datum, rng.choice(cosets))
        label = block_label(datum, lam)
        assert label == _reference_label(datum, lam)
        assert label.json_str() == _reference_label(datum, lam).json_str()
        atypical += typicality(datum, lam).kind == "atypical"
    assert atypical > 20 or family in ("p", "reductive")


def _non_integral_weights(rng, datum):
    yield Weight([Fraction(1, 2)] * (datum.dim - 1))  # wrong dimension
    for _ in range(10):
        coords = [Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
                  for _ in range(datum.dim)]
        if not is_integral(datum, Weight(coords)):
            yield Weight(coords)


@pytest.mark.parametrize("family,params,cosets", REFERENCE_DATA, ids=lambda v: str(v))
def test_label_refusals_match_fraction_reference(family, params, cosets):
    datum = build_root_datum(family, **params)
    rng = random.Random(f"refusal:{family}:{sorted(params.items())}")
    for lam in _non_integral_weights(rng, datum):
        with pytest.raises(SuperlinkError) as expected:
            _reference_label(datum, lam)
        with pytest.raises(SuperlinkError) as got:
            block_label(datum, lam)
        assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


@pytest.mark.parametrize("family,params,cosets", REFERENCE_DATA, ids=lambda v: str(v))
def test_partition_labels_match_fraction_reference(family, params, cosets):
    datum = build_root_datum(family, **params)
    rng = random.Random(f"partition:{family}:{sorted(params.items())}")
    boxes = []
    for coset in cosets:
        anchor = _integral_weight(rng, datum, coset).coords  # an integral lattice
        cube = WeightBox.cube(datum.dim, -2, 1 if datum.dim > 4 else 2)
        boxes.append(WeightBox(cube.lo, cube.hi, anchor))
    for box in boxes:
        report = partition_box(datum, box, enlarge=False)
        assert report.sound
        for comp, label in zip(report.components, report.component_labels):
            assert {_reference_label(datum, w) for w in comp} == {label}
    if not datum.even_positive:  # gl(1|1): every weight is integral
        return
    # refusals: a lattice off the integral weights
    off = WeightBox(box.lo, box.hi, box.anchor[:-1] + (Fraction(1, 5),))
    with pytest.raises(SuperlinkError) as expected:
        _reference_label(datum, box_points(off)[0])
    with pytest.raises(SuperlinkError) as got:
        partition_box(datum, off)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))
