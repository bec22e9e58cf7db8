import dataclasses
import inspect
import itertools
import random
from fractions import Fraction

import pytest

from superlink import (CapExceededError, SuperlinkError, UnsupportedInputError,
                       block_label, build_root_datum, dot, verma_mult,
                       verma_series_rank_small)
from superlink import oracle
from superlink.blocks import linkage_reflection
from superlink.kl import FiniteWeylGroup, kl_polynomial
from superlink.oracle import (BOX_CAP, LinkageGenerators, WeightBox, _frame,
                              bfs_linkage_closure, default_generators, kl_cross_check,
                              kl_via_inversion, partition_box)
from superlink.root_data import bilinear, is_integral
from superlink.weights import Weight
from superlink.weyl import antidominant_rep, reflection_element

from oracle_reference import partition_json


def test_box_points_and_contains():
    box = WeightBox.cube(2, -2, 2)
    pts = list(box.points())
    assert len(pts) == 25 == box.count()
    assert box.contains(Weight([0, -2]))
    assert not box.contains(Weight([0, 3]))
    assert not box.contains(Weight([0, Fraction(1, 2)]))  # off the lattice
    anchored = WeightBox((Fraction(-1),), (Fraction(1),), Fraction(1), (Fraction(1, 2),))
    assert [w.coords[0] for w in anchored.points()] == [Fraction(-1, 2), Fraction(1, 2)]


def test_box_refuses_nonpositive_step():
    """A step <= 0 once made points() loop forever (negative) or count()
    divide by zero; the box now refuses it at construction."""
    lo, hi = (Fraction(-2),) * 2, (Fraction(2),) * 2
    for step in (Fraction(-1), Fraction(0), Fraction(-1, 2)):
        with pytest.raises(UnsupportedInputError, match="box step must be positive"):
            WeightBox(lo, hi, step)
    with pytest.raises(UnsupportedInputError, match="box step must be positive"):
        WeightBox.cube(2, -2, 2, 0)
    with pytest.raises(UnsupportedInputError, match="box step must be positive"):
        dataclasses.replace(WeightBox(lo, hi), step=Fraction(-1))


def test_box_hash_follows_equality(p2):
    """A box keeps the hash it computed at construction: boxes built apart
    are equal exactly when their hashes are, and share one frame."""
    lo, hi = (Fraction(-2),) * 2, (Fraction(2),) * 2
    small = WeightBox.cube(2, -1, 1)
    same = [WeightBox.cube(2, -2, 2), WeightBox(lo, hi),
            dataclasses.replace(small, lo=lo, hi=hi), small.enlarged(1)]
    for box in same:
        assert box == same[0] and hash(box) == hash(same[0])
    _frame.cache_clear()
    assert len({id(_frame(p2, box)) for box in same}) == 1
    assert _frame.cache_info().currsize == 1
    for other in (dataclasses.replace(same[0], hi=(Fraction(3), Fraction(2))), small,
                  dataclasses.replace(same[0], step=Fraction(1, 2)),
                  dataclasses.replace(same[0], anchor=(Fraction(1, 2), Fraction(0)))):
        assert other != same[0] and hash(other) != hash(same[0])
        assert _frame(p2, other) is not _frame(p2, same[0])


def test_coroots_computed_once_per_datum(gl22, monkeypatch):
    """The datum's coroot vectors do not depend on the box; frames of two
    boxes share them, read once from root_data's coroot table."""
    calls = []
    table = oracle._coroots
    monkeypatch.setattr(oracle, "_coroots", lambda datum: calls.append(datum) or table(datum))
    oracle._root_vectors.cache_clear()
    first = oracle._Frame(gl22, WeightBox.cube(4, -1, 1))
    second = oracle._Frame(gl22, WeightBox.cube(4, -2, 2, Fraction(1, 2)))
    assert calls == [gl22]
    assert first.coroots is second.coroots
    assert first.coroots == table(gl22)


def test_box_cap():
    box = WeightBox.cube(4, -100, 100)
    with pytest.raises(CapExceededError):
        list(box.points())


def test_bfs_trivial_generators(p2):
    box = WeightBox.cube(2, -3, 3)
    assert bfs_linkage_closure(p2, Weight([1, 1]), box, LinkageGenerators.none()) \
        == [Weight([1, 1])]


def test_bfs_p2_component(p2):
    box = WeightBox.cube(2, -4, 4)
    comp = bfs_linkage_closure(p2, Weight([0, 0]), box, default_generators(p2))
    expected = [w for w in box.points()
                if block_label(p2, w).payload[0] == 1]
    assert comp == sorted(expected)


def test_bfs_reductive_a1_dot_orbit(red_a1):
    box = WeightBox.cube(2, -4, 4)
    comp = bfs_linkage_closure(red_a1, Weight([0, 0]), box, default_generators(red_a1))
    assert comp == sorted([Weight([0, 0]), Weight([-1, 1])])


def test_bfs_monotone_under_enlargement(gl21):
    small = WeightBox.cube(3, -2, 2)
    big = small.enlarged(2)
    gens = default_generators(gl21)
    for seed in [Weight([0, 0, 0]), Weight([1, -1, 0])]:
        comp_small = set(bfs_linkage_closure(gl21, seed, small, gens))
        comp_big = set(bfs_linkage_closure(gl21, seed, big, gens))
        assert comp_small <= comp_big


def test_bfs_seed_outside_box(p2):
    with pytest.raises(UnsupportedInputError):
        bfs_linkage_closure(p2, Weight([9, 9]), WeightBox.cube(2, -1, 1),
                            default_generators(p2))


# -- the integer frame against the Fraction moves it replaced -----------------

def _reference_neighbors(gens, datum, lam, box):
    """The box moves in Fraction arithmetic, as the oracle computed them
    before it moved to integer coordinates."""
    if gens.reflection_moves:
        for alpha in datum.simple_even:
            img = linkage_reflection(datum, alpha, lam)
            if box.contains(img):
                yield img
    if gens.isotropic_shifts and datum.isotropic_roots:
        shifted = lam + datum.rho
        seen_lines = set()
        for root in datum.isotropic_roots:
            a = root.weight
            key = min(a.coords, (-a).coords)
            if key in seen_lines:
                continue
            seen_lines.add(key)
            if bilinear(datum, shifted, a) != 0:
                continue
            for direction in (a, -a):
                c = 1
                while True:
                    img = lam - direction.scale(c)
                    if not box.contains(img):
                        break
                    yield img
                    c += 1
    if gens.p_shifts and datum.family == "p":
        for k in range(datum.dim):
            for sign in (2, -2):
                img = lam.replace(k, lam[k] + sign)
                if box.contains(img):
                    yield img


def _reference_closure(datum, seed, box, gens):
    seen, todo = {seed}, [seed]
    while todo:
        for w in _reference_neighbors(gens, datum, todo.pop(), box):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return sorted(seen)


FRAME_DATA = [("gl", {"m": 1, "n": 1}), ("gl", {"m": 2, "n": 1}), ("osp2", {"n": 1}),
              ("osp2", {"n": 2}), ("p", {"n": 2}), ("p", {"n": 3}), ("osp32", {}),
              ("reductive", {"factors": "A2"}), ("reductive", {"factors": "A1xC1"})]
FRAME_GENS = [LinkageGenerators(), LinkageGenerators(True, False, True),
              LinkageGenerators(False, True, True)]


def _random_boxes(rng, dim, count=8):
    """Boxes of 8 to 100 points with fractional bounds, anchors and steps."""
    boxes = []
    while len(boxes) < count:
        step = rng.choice([Fraction(1), Fraction(1), Fraction(1, 2), Fraction(2)])
        anchor = tuple(rng.choice([0, 0, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3)])
                       for _ in range(dim))
        lo = tuple(Fraction(rng.randint(-6, 0), rng.choice([1, 1, 2, 3])) for _ in range(dim))
        hi = tuple(l + step * rng.randint(2, 5) + rng.choice([0, Fraction(1, 2)])
                   for l in lo)
        box = WeightBox(lo, hi, step, rng.choice([None, anchor]))
        if 8 <= box.count() <= 100:
            boxes.append(box)
    return boxes


@pytest.mark.parametrize("family,params", FRAME_DATA, ids=lambda v: str(v))
def test_frame_moves_match_fraction_moves(family, params):
    datum = build_root_datum(family, **params)
    rng = random.Random(f"frame:{family}:{sorted(params.items())}")
    for box in _random_boxes(rng, datum.dim):
        frame = _frame(datum, box)
        gens = rng.choice(FRAME_GENS)
        reference = {}  # every move is reversible, so closures partition the box
        for w in box.points():
            n = frame.lattice(w)
            assert frame.integral(n) == is_integral(datum, w)
            # the same images in the same order: the BFS edge count is unchanged
            assert [frame.weight(x) for x in gens.neighbors(datum, n, frame)] \
                == list(_reference_neighbors(gens, datum, w, box))
            if w not in reference:
                comp = _reference_closure(datum, w, box, gens)
                reference.update(dict.fromkeys(comp, comp))
            assert bfs_linkage_closure(datum, w, box, gens) == reference[w]


@pytest.mark.parametrize("family,params", FRAME_DATA, ids=lambda v: str(v))
def test_frame_moves_match_on_coarse_lattices(family, params):
    """Box steps 3 and 3/2 divide neither the p(n) shift 2 nor most moves,
    so the images of every kind of move need the box's lattice test."""
    datum = build_root_datum(family, **params)
    for lo, hi, step in ((-6, 6, 3), (-3, 3, Fraction(3, 2))):
        box = WeightBox.cube(datum.dim, lo, hi, step)
        frame = _frame(datum, box)
        for gens, w in itertools.product(FRAME_GENS, box.points()):
            assert [frame.weight(x) for x in gens.neighbors(datum, frame.lattice(w), frame)] \
                == list(_reference_neighbors(gens, datum, w, box))


def test_frame_refuses_fractional_roots(p2):
    root = p2.simple_even[0]
    halved = dataclasses.replace(root, weight=root.weight.scale(Fraction(1, 2)))
    datum = dataclasses.replace(p2, simple_even=(halved,))
    with pytest.raises(UnsupportedInputError, match="integer roots and coroots"):
        bfs_linkage_closure(datum, Weight([0, 0]), WeightBox.cube(2, -1, 1),
                            default_generators(datum))


def test_partition_refusals_keep_type_and_message(p2, gl21, red_a2):
    half = Fraction(1, 2)
    off_lattice = [(p2, (half, 0)), (gl21, (half, 0, 0)), (red_a2, (half, 0, 0))]
    for datum, anchor in off_lattice:
        box = WeightBox.cube(datum.dim, -2, 2)
        box = WeightBox(box.lo, box.hi, box.step, anchor)
        with pytest.raises(SuperlinkError) as expected:
            block_label(datum, next(box.points()))
        with pytest.raises(SuperlinkError) as got:
            partition_box(datum, box, default_generators(datum))
        assert (type(got.value), str(got.value)) \
            == (type(expected.value), str(expected.value))
    big = WeightBox.cube(4, -100, 100)
    with pytest.raises(CapExceededError) as got:
        partition_box(build_root_datum("p", n=4), big, LinkageGenerators())
    assert str(got.value) == f"box holds {big.count()} points, cap is {BOX_CAP}"


def test_partition_box_takes_a_cap(p2):
    box = WeightBox.cube(2, -2, 2)  # 25 points
    with pytest.raises(CapExceededError) as got:
        partition_box(p2, box, default_generators(p2), cap=24)
    assert str(got.value) == "box holds 25 points, cap is 24"
    assert partition_box(p2, box, default_generators(p2), cap=25).to_json(p2) \
        == partition_box(p2, box, default_generators(p2)).to_json(p2)


def test_enlargement_pass_takes_the_cap(osp24, monkeypatch):
    """The enlarged box is checked against the cap once, before any closure
    in it: a small box whose labels split cannot start a closure of many
    times its size."""
    box = WeightBox((Fraction(0), Fraction(-1), Fraction(-3)),
                    (Fraction(3), Fraction(2), Fraction(0)))  # 64 points
    big = box.enlarged()
    gens = default_generators(osp24)
    closed = []
    real = oracle.bfs_linkage_closure
    monkeypatch.setattr(oracle, "bfs_linkage_closure",
                        lambda datum, seed, b, g: closed.append(b) or real(datum, seed, b, g))
    with pytest.raises(CapExceededError) as got:
        partition_box(osp24, box, gens, cap=big.count() - 1)
    assert str(got.value) == "enlarged box holds 512 points, cap is 511"
    assert big not in closed
    report = partition_box(osp24, box, gens)
    assert len(report.label_splits) == 3 and big in closed
    assert partition_box(osp24, box, gens, cap=512).to_json(osp24) == report.to_json(osp24)


def test_partition_closes_components_through_the_public_bfs(osp24, monkeypatch):
    """partition_box closes each component, and each enlargement, through
    the public bfs_linkage_closure over the neighbors generator: the
    benchmark's tracer counts closures and BFS edges on exactly these."""
    assert inspect.isgeneratorfunction(LinkageGenerators.neighbors)
    calls = []
    real = oracle.bfs_linkage_closure
    monkeypatch.setattr(oracle, "bfs_linkage_closure",
                        lambda datum, seed, b, g: calls.append(b) or real(datum, seed, b, g))
    box = WeightBox((Fraction(1), Fraction(-6), Fraction(0)),
                    (Fraction(1), Fraction(6), Fraction(0)))
    gens = default_generators(osp24)
    report = partition_box(osp24, box, gens, enlarge=False)
    assert calls == [box] * len(report.components)
    calls.clear()
    report = partition_box(osp24, box, gens)
    assert report.label_splits
    assert calls == [box] * len(report.components) + [box.enlarged()] * len(report.label_splits)


# -- the label pass against the point-by-point partition it replaced ----------

PARTITION_DATA = [("gl", {"m": 1, "n": 1}), ("gl", {"m": 2, "n": 1}), ("gl", {"m": 2, "n": 2}),
                  ("osp2", {"n": 1}), ("osp2", {"n": 2}), ("p", {"n": 2}), ("p", {"n": 3}),
                  ("osp32", {})]


def _partition_boxes(rng, dim, count):
    """Boxes of 1 to 60 points with integer and fractional anchors, steps
    1/2, 1 and 2, and flat axes (lo = hi), along which a step moves nothing:
    there a box can be integral point by point but not by the box-wide
    proof."""
    boxes = []
    while len(boxes) < count:
        step = rng.choice([Fraction(1), Fraction(1), Fraction(1, 2), Fraction(2)])
        anchor = tuple(rng.choice([0, 1, -1, Fraction(1, 2), Fraction(-1, 3)])
                       for _ in range(dim))
        lo = tuple(Fraction(rng.randint(-4, 1)) for _ in range(dim))
        hi = tuple(l if rng.random() < 0.3 else l + step * rng.randint(1, 3) for l in lo)
        box = WeightBox(lo, hi, step, rng.choice([None, anchor]))
        if 1 <= box.count() <= 60:
            boxes.append(box)
    return boxes


def test_partition_matches_point_by_point_reference():
    """partition_box labels the box frame's lattice, proving integrality
    once per box where it can; its report equals the point-by-point
    partition, and a box it refuses is refused alike."""
    seen = set()
    for family, params in PARTITION_DATA:
        datum = build_root_datum(family, **params)
        rng = random.Random(f"partition:{family}:{sorted(params.items())}")
        proven = False
        for box in _partition_boxes(rng, datum.dim, 30):
            gens, enlarge = rng.choice(FRAME_GENS), rng.random() < 0.7
            try:
                expected = partition_json(datum, box, gens, enlarge)
            except SuperlinkError as refusal:
                with pytest.raises(SuperlinkError) as got:
                    partition_box(datum, box, gens, enlarge)
                assert (type(got.value), str(got.value)) == (type(refusal), str(refusal))
                seen.add("refused")
                continue
            assert partition_box(datum, box, gens, enlarge).to_json(datum) == expected, box
            whole = _frame(datum, box).all_integral
            proven |= whole
            seen.add("proven" if whole else "per point")
            if expected["label_splits"]:
                seen.add("split")
        assert proven, family  # every datum takes the fast path somewhere
    assert seen == {"refused", "proven", "per point", "split"}


@pytest.mark.parametrize("family,params", PARTITION_DATA + FRAME_DATA[-2:],
                         ids=lambda v: str(v))
def test_box_wide_integrality_proof(family, params):
    """Where the frame proves the whole box integral, every point is; and it
    proves it for every integer-anchored box of step 1 or 2, the shape of
    validate's boxes, so the label pass skips the per-point test there."""
    datum = build_root_datum(family, **params)
    rng = random.Random(f"proof:{family}:{sorted(params.items())}")
    failed = 0
    for box in _random_boxes(rng, datum.dim, 12) + _partition_boxes(rng, datum.dim, 20):
        frame = _frame(datum, box)
        if frame.all_integral:
            assert all(map(frame.integral, frame.points())), box
        failed += not frame.all_integral
    assert failed or not datum.even_positive  # not vacuous where coroots exist
    for _ in range(20):
        lo = tuple(Fraction(rng.randint(-6, 0)) for _ in range(datum.dim))
        hi = tuple(l + rng.randint(0, 4) for l in lo)
        anchor = rng.choice([None, tuple(Fraction(rng.randint(-3, 3)) for _ in lo)])
        frame = _frame(datum, WeightBox(lo, hi, Fraction(rng.choice([1, 2])), anchor))
        assert frame.all_integral
        assert all(map(frame.integral, frame.points()))


def test_partition_p2(p2):
    report = partition_box(p2, WeightBox.cube(2, -6, 6), default_generators(p2))
    assert report.sound
    assert len(report.components) == 3
    assert sorted(l.payload[0] for l in report.component_labels) == [0, 1, 2]


def test_partition_gl11(gl11):
    report = partition_box(gl11, WeightBox.cube(2, -5, 5), default_generators(gl11))
    assert report.sound
    sizes = sorted(len(c) for c in report.components)
    # the atypical anti-diagonal forms one 11-point component; typical
    # points are dot-isolated (W is trivial)
    assert sizes[-1] == 11
    assert sizes[:-1] == [1] * 110
    assert not report.label_splits


def test_partition_reductive_a2_components_are_orbits(red_a2):
    box = WeightBox.cube(3, -2, 2)
    report = partition_box(red_a2, box, default_generators(red_a2))
    assert report.sound
    for comp in report.components:
        rep, _ = antidominant_rep(red_a2, comp[0])
        for w in comp:
            assert antidominant_rep(red_a2, w)[0] == rep


def test_partition_slab_splits_merge_after_enlargement(osp24):
    """A slab box pins d2 = 0, so sign-flip paths must leave the box; the
    enlargement pass must reconnect every label split."""
    box = WeightBox((Fraction(1), Fraction(-6), Fraction(0)),
                    (Fraction(1), Fraction(6), Fraction(0)))
    report = partition_box(osp24, box, default_generators(osp24), enlarge=True)
    assert report.sound
    assert report.label_splits  # the slab genuinely splits labels
    assert all(s["merged_after_enlargement"] for s in report.label_splits)


def test_report_json_round_trip(p2):
    import json
    report = partition_box(p2, WeightBox.cube(2, -3, 3), default_generators(p2))
    payload = json.loads(json.dumps(report.to_json(p2)))
    assert payload["sound"] is True
    for comp in payload["components"]:
        w = p2.parse_weight(comp["representative"])
        assert block_label(p2, w).to_json() == comp["label"]


def test_kl_cross_check_small_groups():
    for W in (FiniteWeylGroup.symmetric(2), FiniteWeylGroup.symmetric(3),
              FiniteWeylGroup.symmetric(4), FiniteWeylGroup.symmetric(5),
              FiniteWeylGroup.type_c(2), FiniteWeylGroup.type_c(3)):
        report = kl_cross_check(W)
        assert report.ok, report.diffs
        assert report.pairs_checked == W.order ** 2


def test_cross_check_catches_corrupted_bruhat_ideals():
    """Delete one bit from one engine Bruhat ideal of a fresh S4, for each of
    the 189 bits below the diagonal: the inversion still returns the true
    table, and the cross-check reports diffs exactly when the engine's
    polynomials changed."""
    clean = FiniteWeylGroup.symmetric(4)
    truth = kl_via_inversion(clean)
    elements = clean.elements()
    engine = {(x, w): kl_polynomial(clean, x, w) for x in elements for w in elements}
    memo = clean._memo
    cases = [(y, x) for y in range(memo.n) for x in range(memo.n)
             if x != y and memo.ideal(y) >> x & 1]
    assert len(cases) == 189
    changed = 0
    for y, x in cases:
        W = FiniteWeylGroup.symmetric(4)
        W._memo.ideal(y)
        W._memo._ideal[y] &= ~(1 << x)
        differs = any(kl_polynomial(W, a, b) != p for (a, b), p in engine.items())
        changed += differs
        assert kl_via_inversion(W) == truth
        assert kl_cross_check(W).ok is not differs
    assert changed == 56


def test_inversion_is_independent_of_the_engine():
    """The R-polynomial path reads only the group's reflections and
    identity: no Bruhat order, KL polynomial, index or element list of the
    engine."""
    import ast

    tree = ast.parse(inspect.getsource(oracle))
    path = [node for node in tree.body
            if getattr(node, "name", None) in ("_RPolynomials", "kl_via_inversion")]
    assert len(path) == 2
    engine = {"bruhat_leq", "kl_polynomial", "shared_group", "_index", "_memo", "left_mult"}
    for node in (n for root in path for n in ast.walk(root)):
        if isinstance(node, ast.Name):
            assert node.id not in engine
        elif isinstance(node, ast.Attribute):
            assert node.attr not in engine
            if isinstance(node.value, ast.Name) and node.value.id == "W":
                assert node.attr in ("reflections", "identity")


def test_inversion_method_agrees_on_pinned_pair():
    S4 = FiniteWeylGroup.symmetric(4)
    s = S4.reflections
    w = s[1].compose(s[0]).compose(s[2]).compose(s[1])
    table = kl_via_inversion(S4)
    assert table[(s[1].images, w.images)].coeffs == (1, 1)


def test_unbalanced_inversion_is_the_oracle_fault(monkeypatch):
    """A wrong R-polynomial breaks the inversion identity, which is the
    oracle's own failure, not a refused input."""
    build = oracle._RPolynomials.__init__

    def corrupted(self, W):
        build(self, W)
        self.rows[-1][0] <<= self.b  # q R_{e,w0}

    monkeypatch.setattr(oracle._RPolynomials, "__init__", corrupted)
    with pytest.raises(SuperlinkError, match="failed to balance") as raised:
        kl_via_inversion(FiniteWeylGroup.symmetric(3))
    assert not isinstance(raised.value, UnsupportedInputError)


@pytest.mark.slow
def test_kl_cross_check_extended():
    assert kl_cross_check(FiniteWeylGroup.type_c(4)).ok
    assert kl_cross_check(FiniteWeylGroup.symmetric(6)).ok


def test_cross_check_cap():
    with pytest.raises(CapExceededError):
        kl_cross_check(FiniteWeylGroup.symmetric(7))


def test_verma_oracle_a1(red_a1):
    table = verma_series_rank_small(red_a1, Weight([-1, 1]))
    lam0, dom = Weight([-1, 1]), Weight([0, 0])
    assert table.entries[(dom, dom)] == 1
    assert table.entries[(dom, lam0)] == 1
    assert table.entries[(lam0, lam0)] == 1
    assert table.entries[(lam0, dom)] == 0
    assert table.provenance == "character-oracle"


def test_verma_oracle_singular_orbit(red_a1):
    table = verma_series_rank_small(red_a1, Weight([0, 1]))  # one-point orbit
    assert table.entries == {(Weight([0, 1]), Weight([0, 1])): 1}


@pytest.mark.parametrize("factors,base", [("A1", (-1, 1)), ("A2", (-2, 0, 2)),
                                          ("C2", (-4, -2))])
def test_verma_oracle_matches_kl(factors, base):
    datum = build_root_datum("reductive", factors=factors)
    lam = Weight(base)
    oracle_table = verma_series_rank_small(datum, lam)
    W = FiniteWeylGroup(datum)
    for (mu, gamma), value in oracle_table.entries.items():
        _, wit_mu = antidominant_rep(datum, mu)
        _, wit_g = antidominant_rep(datum, gamma)
        assert verma_mult(datum, lam, wit_mu.inverse(), wit_g.inverse()) == value


def test_verma_oracle_rank_cap():
    with pytest.raises(UnsupportedInputError):
        verma_series_rank_small(build_root_datum("reductive", factors="A3"),
                                Weight([-3, -1, 1, 3]))
