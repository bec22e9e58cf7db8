import dataclasses
import inspect
import json
import random
from fractions import Fraction

import pytest

from superlink import (CapExceededError, DimensionMismatchError, SuperlinkError,
                       UnsupportedInputError, block_label, build_root_datum, verma_mult,
                       verma_series_rank_small)
from superlink import oracle
from superlink.kl import FiniteWeylGroup, kl_polynomial
from superlink.oracle import (BOX_CAP, LinkageGenerators, PartitionReport, WeightBox, _frame,
                              bfs_linkage_closure, block_members, kl_cross_check,
                              kl_via_inversion, partition_box)
from superlink.root_data import is_integral
from superlink.weights import Weight
from superlink.weyl import antidominant_rep

from oracle_reference import (box_contains, box_points, linkage_closure, linkage_neighbors,
                              partition_json)


def test_box_points_and_contains(p2):
    box = WeightBox.cube(2, -2, 2)
    pts = box_points(box)
    assert len(pts) == 25 == box.count()
    frame = _frame(p2, box)
    assert frame.points() == [frame.lattice(w) for w in pts]
    assert box_contains(box, Weight([0, -2]))
    assert not box_contains(box, Weight([0, 3]))
    assert not box_contains(box, Weight([0, Fraction(1, 2)]))  # off the lattice
    anchored = WeightBox((Fraction(-1),), (Fraction(1),), (Fraction(1, 2),))
    assert [w.coords[0] for w in box_points(anchored)] == [Fraction(-1, 2), Fraction(1, 2)]


def test_box_refuses_bounds_of_different_lengths():
    """lo, hi and anchor share one length: zip once truncated the longer,
    and the box answered for the shorter."""
    two, three = (Fraction(-1),) * 2, (Fraction(1),) * 3
    for lo, hi, anchor in ((two, three, None), (three, two, None),
                           (two, two, (Fraction(0),) * 3), (three, three, two)):
        with pytest.raises(DimensionMismatchError,
                           match="^box lo, hi and anchor differ in length$"):
            WeightBox(lo, hi, anchor)
    with pytest.raises(DimensionMismatchError):
        dataclasses.replace(WeightBox.cube(2, -1, 1), hi=three)


def test_frame_refuses_a_box_of_another_dimension(p2, gl11):
    """A box of the wrong dimension is refused with check_dim's type and
    text: partition_box once raised IndexError, a closure in gl(1|1)
    refused its seed as outside the box, and block_members answered with
    3-coordinate weights."""
    def refusal(datum, dim):
        with pytest.raises(DimensionMismatchError) as got:
            datum.check_dim(Weight([0] * dim))
        return type(got.value), str(got.value)

    for call, datum, dim in [
            (lambda: partition_box(p2, WeightBox.cube(1, -1, 1)), p2, 1),
            (lambda: bfs_linkage_closure(gl11, Weight([0, 0, 0]), WeightBox.cube(3, -1, 1)),
             gl11, 3),
            (lambda: block_members(gl11, WeightBox.cube(3, -1, 1),
                                   block_label(gl11, Weight([0, 0]))), gl11, 3)]:
        with pytest.raises(DimensionMismatchError) as got:
            call()
        assert (type(got.value), str(got.value)) == refusal(datum, dim)


def test_box_hash_follows_equality(p2):
    """Boxes built apart are equal exactly when their hashes are, also
    after a frame has been kept on one of them."""
    lo, hi = (Fraction(-2),) * 2, (Fraction(2),) * 2
    small = WeightBox.cube(2, -1, 1)
    same = [WeightBox.cube(2, -2, 2), WeightBox(lo, hi),
            dataclasses.replace(small, lo=lo, hi=hi), WeightBox.cube(2, 0, 0).enlarged()]
    _frame(p2, same[0])
    for box in same:
        assert box == same[0] and hash(box) == hash(same[0])
    for other in (dataclasses.replace(same[0], hi=(Fraction(3), Fraction(2))), small,
                  dataclasses.replace(same[0], anchor=(Fraction(1, 2), Fraction(0)))):
        assert other != same[0] and hash(other) != hash(same[0])


def test_frame_kept_on_its_box(monkeypatch, osp24, p2, gl11):
    """partition_box builds one frame for its box, and one more for the
    enlarged box when labels split, however many splits it closes there; a
    box used with a second datum gets that datum's frame, never a stale
    one."""
    built = []
    init = oracle._Frame.__init__
    monkeypatch.setattr(oracle._Frame, "__init__",
                        lambda self, datum, box: built.append(box) or init(self, datum, box))
    slab = WeightBox((Fraction(1), Fraction(-6), Fraction(0)),
                     (Fraction(1), Fraction(6), Fraction(0)))
    report = partition_box(osp24, slab)
    assert len(report.label_splits) > 1 and built == [slab, slab.enlarged()]
    built.clear()
    partition_box(osp24, slab, enlarge=False)
    assert built == []  # the box keeps its frame
    box = WeightBox.cube(2, -2, 2)
    assert not partition_box(p2, box).label_splits
    assert built == [box]
    twin = build_root_datum("p", n=2)
    for datum in (twin, gl11, p2):
        frame = _frame(datum, box)
        assert frame.datum is datum and _frame(datum, box) is frame
    assert built == [box] * 4


def test_box_label_pass_proves_integrality_once(integrality_calls, gl21):
    """The box frame proves every point integral from the anchor, so the
    label pass and the partition make no is_integral call, for reductive
    data as for the super families; a box of a non-integral anchor is
    refused with block_label's text after one call, on its first point."""
    cube = WeightBox.cube(3, -2, 2)
    reductive = [build_root_datum("reductive", factors=f) for f in ("A2", "A1,C1")]
    for datum in (*reductive, gl21):
        box = WeightBox(cube.lo, cube.hi)  # a fresh box: no frame kept from before
        integrality_calls.clear()
        _, ids, _ = oracle._box_labels(datum, box)
        report = partition_box(datum, box)
        assert len(ids) == 125 and report.sound
        assert integrality_calls == []
    off = WeightBox(cube.lo, cube.hi, (Fraction(1, 2), Fraction(0), Fraction(0)))
    integrality_calls.clear()
    with pytest.raises(UnsupportedInputError,
                       match="^anti-dominant representatives need an integral weight$"):
        partition_box(reductive[0], off)
    assert len(integrality_calls) == 1


def test_label_values_built_once_per_call(monkeypatch):
    """One label pass over a gl(2|2) cube builds each label value v / D
    once, not once per payload entry of its 213 labels."""
    gl22 = build_root_datum("gl", m=2, n=2)
    box = WeightBox.cube(4, -2, 2)
    _frame(gl22, box)  # the frame's own conversions are not the label pass's
    calls = []
    monkeypatch.setattr(oracle, "Fraction", lambda *args: calls.append(args) or Fraction(*args))
    for _ in range(2):  # the values are kept by the call, not the frame
        calls.clear()
        _, _, labels = oracle._box_labels(gl22, box)
        values = {c for label in labels for core in label.payload[:2] for c in core}
        built = [args for args in calls if len(args) == 2]  # Fraction(v, D)
        assert len(labels) == 213
        assert len(built) == len(set(built)) == len(values)


def test_coroots_computed_once_per_datum(monkeypatch):
    """The datum's coroot vectors do not depend on the box; frames of two
    boxes share those of root_data's integer frame, built once."""
    from superlink import root_data

    calls = []
    init = root_data._IntegerFrame.__init__
    monkeypatch.setattr(root_data._IntegerFrame, "__init__",
                        lambda self, datum: calls.append(datum) or init(self, datum))
    gl22 = build_root_datum("gl", m=2, n=2)
    first = oracle._Frame(gl22, WeightBox.cube(4, -1, 1))
    second = oracle._Frame(gl22, WeightBox.cube(4, -2, 2))
    assert calls == [gl22]
    assert first.coroots is second.coroots is root_data._integer_frame(gl22).coroots


def test_box_stores_the_origin_for_a_missing_anchor():
    """An anchor of None is resolved once, to the origin: the box equals,
    and hashes like, the same box anchored at zero."""
    lo, hi = (Fraction(-1), Fraction(-2)), (Fraction(1), Fraction(2))
    zeros = (Fraction(0), Fraction(0))
    box = WeightBox(lo, hi)
    assert box.anchor == zeros
    assert box == WeightBox(lo, hi, zeros) and hash(box) == hash(WeightBox(lo, hi, zeros))
    assert box.enlarged().anchor == zeros
    with pytest.raises(DimensionMismatchError):
        WeightBox(lo, hi, zeros[:1])


def test_box_cap():
    box = WeightBox.cube(4, -100, 100)
    with pytest.raises(CapExceededError):
        box._check_cap()
    with pytest.raises(CapExceededError):
        box_points(box)


def test_bfs_p2_component(p2):
    box = WeightBox.cube(2, -4, 4)
    comp = bfs_linkage_closure(p2, Weight([0, 0]), box)
    expected = [w for w in box_points(box)
                if block_label(p2, w).payload[0] == 1]
    assert comp == sorted(expected)


def test_bfs_reductive_a1_dot_orbit(red_a1):
    box = WeightBox.cube(2, -4, 4)
    comp = bfs_linkage_closure(red_a1, Weight([0, 0]), box)
    assert comp == sorted([Weight([0, 0]), Weight([-1, 1])])


def test_bfs_monotone_under_enlargement(gl21):
    small = WeightBox.cube(3, -2, 2)
    big = small.enlarged()
    for seed in [Weight([0, 0, 0]), Weight([1, -1, 0])]:
        comp_small = set(bfs_linkage_closure(gl21, seed, small))
        comp_big = set(bfs_linkage_closure(gl21, seed, big))
        assert comp_small <= comp_big


def test_singleton_component_is_the_callers_seed(gl22, red_a1):
    """A closure no move leaves holds the caller's own seed object, beside
    its lattice point; a larger closure still equals the reference one."""
    seed = Weight([1, -2, 3, 0])
    box = WeightBox(seed.coords, seed.coords)  # one point
    comp = bfs_linkage_closure(gl22, seed, box)
    assert comp == [seed] and comp[0] is seed
    assert comp.lattice == [_frame(gl22, box).lattice(seed)]
    # -rho0 is the A1 dot action's fixed point, alone in its component
    fixed = -red_a1.rho0
    cube = WeightBox.cube(2, -3, 3)
    box = WeightBox(cube.lo, cube.hi, fixed.coords)
    comp = bfs_linkage_closure(red_a1, fixed, box)
    assert comp[0] is fixed and comp.lattice == [_frame(red_a1, box).lattice(fixed)]
    seed = fixed + Weight([1, 0])
    comp = bfs_linkage_closure(red_a1, seed, box)
    assert len(comp) > 1 and comp == linkage_closure(red_a1, seed, box)
    assert comp.lattice == [_frame(red_a1, box).lattice(w) for w in comp]


def test_bfs_seed_outside_box(p2):
    with pytest.raises(UnsupportedInputError):
        bfs_linkage_closure(p2, Weight([9, 9]), WeightBox.cube(2, -1, 1))


# -- the integer frame against the Fraction moves it replaced -----------------

FRAME_DATA = [("gl", {"m": 1, "n": 1}), ("gl", {"m": 2, "n": 1}), ("osp2", {"n": 1}),
              ("osp2", {"n": 2}), ("p", {"n": 2}), ("p", {"n": 3}), ("osp32", {}),
              ("reductive", {"factors": "A2"}), ("reductive", {"factors": "A1xC1"})]


def _random_boxes(rng, dim, count=8):
    """Boxes of 8 to 100 points with fractional bounds, anchored at the
    origin, on one coset in every coordinate, or on a coset per coordinate."""
    cosets = [0, 0, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3)]
    boxes = []
    while len(boxes) < count:
        anchor = rng.choice([None, (rng.choice(cosets),) * dim,
                             tuple(rng.choice(cosets) for _ in range(dim))])
        lo = tuple(Fraction(rng.randint(-6, 0), rng.choice([1, 1, 2, 3])) for _ in range(dim))
        hi = tuple(l + rng.randint(2, 5) + rng.choice([0, Fraction(1, 2)]) for l in lo)
        box = WeightBox(lo, hi, anchor)
        if 8 <= box.count() <= 100:
            boxes.append(box)
    return boxes


@pytest.mark.parametrize("family,params", FRAME_DATA, ids=lambda v: str(v))
def test_frame_moves_match_fraction_moves(family, params):
    """In a box whose anchor is integral, the integer moves yield the
    Fraction moves' images in the same order and close the same components;
    in a box of a non-integral anchor, closures are refused."""
    datum = build_root_datum(family, **params)
    rng = random.Random(f"frame:{family}:{sorted(params.items())}")
    gens = LinkageGenerators()
    integral = 0
    for box in _random_boxes(rng, datum.dim, 12):
        frame = _frame(datum, box)
        points = box_points(box)
        if not frame.all_integral:
            with pytest.raises(UnsupportedInputError,
                               match="^linkage closures are computed for integral weights$"):
                bfs_linkage_closure(datum, points[0], box)
            continue
        integral += 1
        reference = {}  # every move is reversible, so closures partition the box
        for w in points:
            # the same images in the same order: the BFS edge count is unchanged
            assert [frame.weight(x) for x in gens.neighbors(datum, frame.lattice(w), frame)] \
                == list(linkage_neighbors(datum, w, box))
            if w not in reference:
                comp = linkage_closure(datum, w, box)
                reference.update(dict.fromkeys(comp, comp))
            comp = bfs_linkage_closure(datum, w, box)
            # a read-only sequence: compared from either side, indexed from
            # either end, iterated and searched like the reference list
            assert comp == reference[w] and reference[w] == comp
            assert list(comp) == reference[w] and comp[-1] == reference[w][-1]
            assert w in comp
    assert integral


@pytest.mark.parametrize("family,params", FRAME_DATA, ids=lambda v: str(v))
def test_frame_moves_match_on_integral_lattices(family, params):
    """On the unit lattice through the origin, an integral anchor, with
    bounds on and off the lattice, the integer moves, which test only the
    bounds, yield the images of the Fraction moves, which test the lattice
    too."""
    datum = build_root_datum(family, **params)
    gens = LinkageGenerators()
    for lo, hi in ((-4, 4), (Fraction(-7, 2), Fraction(5, 2))):
        box = WeightBox.cube(datum.dim, lo, hi)
        frame = _frame(datum, box)
        assert frame.all_integral
        for w in box_points(box):
            assert [frame.weight(x) for x in gens.neighbors(datum, frame.lattice(w), frame)] \
                == list(linkage_neighbors(datum, w, box))


def test_closure_refuses_a_non_integral_box(gl21, p2, red_a2):
    """Simple reflections do not link non-integral weights, so a closure in
    a box of a non-integral anchor is refused; on gl(2|1), anchor and seed
    1/2,0|0 once gave a 5-weight component pruned of its reflections.
    partition_box refuses such a box as block_label does (see
    test_partition_refusals_keep_type_and_message)."""
    half = Fraction(1, 2)
    for datum in (gl21, p2, red_a2):
        anchor = (half,) + (Fraction(0),) * (datum.dim - 1)
        cube = WeightBox.cube(datum.dim, -2, 2)
        with pytest.raises(UnsupportedInputError) as got:
            bfs_linkage_closure(datum, Weight(anchor), WeightBox(cube.lo, cube.hi, anchor))
        assert str(got.value) == "linkage closures are computed for integral weights"


def test_frame_refuses_fractional_roots(p2, red_a1):
    """root_data's integer frame refuses a datum whose even coroots are not
    integer vectors (doubled roots 2 alpha have coroots alpha^vee / 2), and
    the box oracle reaches that refusal; the Shapovalov oracle reaches
    verma_oracle.realize's own refusal, of the same type and text."""
    def doubled(datum):
        roots = tuple(dataclasses.replace(r, vector=tuple((i, 2 * c) for i, c in r.vector))
                      for r in datum.even_positive)
        simple = tuple(roots[datum.even_positive.index(r)] for r in datum.simple_even)
        return dataclasses.replace(datum, even_positive=roots, simple_even=simple)

    refusals = []
    for datum in (p2, red_a1):
        with pytest.raises(UnsupportedInputError, match="integer roots and coroots") as got:
            bfs_linkage_closure(doubled(datum), Weight([0, 0]), WeightBox.cube(2, -1, 1))
        refusals.append((type(got.value), str(got.value)))
    with pytest.raises(UnsupportedInputError, match="integer roots and coroots") as got:
        verma_series_rank_small(doubled(red_a1), Weight([0, 0]))
    assert refusals[-1] == (type(got.value), str(got.value))


def test_partition_refusals_keep_type_and_message(p2, gl21, red_a2):
    half = Fraction(1, 2)
    off_lattice = [(p2, (half, 0)), (gl21, (half, 0, 0)), (red_a2, (half, 0, 0))]
    for datum, anchor in off_lattice:
        box = WeightBox.cube(datum.dim, -2, 2)
        box = WeightBox(box.lo, box.hi, anchor)
        with pytest.raises(SuperlinkError) as expected:
            block_label(datum, box_points(box)[0])
        with pytest.raises(SuperlinkError) as got:
            partition_box(datum, box)
        assert (type(got.value), str(got.value)) \
            == (type(expected.value), str(expected.value))
    big = WeightBox.cube(4, -100, 100)
    with pytest.raises(CapExceededError) as got:
        partition_box(build_root_datum("p", n=4), big)
    assert str(got.value) == f"box holds {big.count()} points, cap is {BOX_CAP}"


def test_partition_box_takes_a_cap(p2):
    box = WeightBox.cube(2, -2, 2)  # 25 points
    with pytest.raises(CapExceededError) as got:
        partition_box(p2, box, cap=24)
    assert str(got.value) == "box holds 25 points, cap is 24"
    assert partition_box(p2, box, cap=25).to_json(p2) == partition_box(p2, box).to_json(p2)


def test_enlargement_pass_takes_the_cap(osp24, monkeypatch):
    """The enlarged box is checked against the cap once, before any closure
    in it: a small box whose labels split cannot start a closure of many
    times its size."""
    box = WeightBox((Fraction(0), Fraction(-1), Fraction(-3)),
                    (Fraction(3), Fraction(2), Fraction(0)))  # 64 points
    big = box.enlarged()
    closed = []
    real = oracle.bfs_linkage_closure
    monkeypatch.setattr(oracle, "bfs_linkage_closure",
                        lambda datum, seed, b: closed.append(b) or real(datum, seed, b))
    with pytest.raises(CapExceededError) as got:
        partition_box(osp24, box, cap=big.count() - 1)
    assert str(got.value) == "enlarged box holds 512 points, cap is 511"
    assert big not in closed
    report = partition_box(osp24, box)
    assert len(report.label_splits) == 3 and big in closed
    assert partition_box(osp24, box, cap=512).to_json(osp24) == report.to_json(osp24)


@pytest.mark.parametrize("name, box, on_walls, splits", [
    ("osp24", WeightBox((Fraction(1), Fraction(-6), Fraction(0)),
                        (Fraction(1), Fraction(6), Fraction(0))), 1, 4),
    ("p2", WeightBox.cube(2, -2, 2), 0, 0),
    ("gl21", WeightBox.cube(3, -1, 1), 4, 0),
])
def test_partition_closes_components_through_the_public_bfs(name, box, on_walls, splits,
                                                            request, monkeypatch):
    """partition_box probes each seed once with the neighbors generator: a
    seed whose every image is itself (or that has none) is its own
    component, and every component of more than one point, and each
    enlargement, is closed through the public bfs_linkage_closure.  The
    benchmark's tracer counts closures and BFS edges on exactly these."""
    datum = request.getfixturevalue(name)
    assert inspect.isgeneratorfunction(LinkageGenerators.neighbors)
    calls = []
    real = oracle.bfs_linkage_closure
    monkeypatch.setattr(oracle, "bfs_linkage_closure",
                        lambda datum, seed, b: calls.append(b) or real(datum, seed, b))
    report = partition_box(datum, box, enlarge=False)
    moving = sum(len(comp) > 1 for comp in report.components)
    assert calls == [box] * moving
    frame = _frame(datum, box)
    walls = 0  # one-point components whose seed a reflection fixes
    for comp in report.components:
        n = comp.lattice[0]
        images = set(LinkageGenerators().neighbors(datum, n, frame))
        assert (len(comp) == 1) == (images <= {n})
        walls += len(comp) == 1 and n in images
    assert walls == on_walls
    calls.clear()
    report = partition_box(datum, box)
    assert len(report.label_splits) == splits
    assert report.to_json(datum) == partition_json(datum, box)
    assert calls == [box] * moving + [box.enlarged()] * len(report.label_splits)


@pytest.mark.parametrize("family, params, box, components", [
    ("p", {"n": 4}, WeightBox.cube(4, -2, 2), 5),  # 625 points
    ("gl", {"m": 2, "n": 2}, WeightBox.cube(4, -1, 1), 33),  # 81 points
])
def test_partition_builds_weights_only_where_they_are_read(family, params, box, components,
                                                           monkeypatch):
    """A component builds the Weight of a point only when it is read, so
    partition_box and to_json build at most one per component (its
    representative) and one per moving seed (handed to the public closure),
    not one per box point."""
    datum = build_root_datum(family, **params)
    calls = []
    real = oracle._Frame.weight
    monkeypatch.setattr(oracle._Frame, "weight",
                        lambda frame, n: calls.append(n) or real(frame, n))
    report = partition_box(datum, box)
    payload = report.to_json(datum)
    built = len(calls)
    moving = sum(len(comp) > 1 for comp in report.components)
    assert built <= len(report.components) + moving < box.count() == payload["points"]
    assert len(report.components) == components
    assert payload == partition_json(datum, box)


def test_report_json_reads_only_the_weights(p2):
    """PartitionReport.to_json formats each component from its weights: a
    report of plain weight lists writes the same JSON, and formatting with
    an equal datum object leaves the box's frame in place."""
    box = WeightBox.cube(2, -2, 2)
    report = partition_box(p2, box)
    frame = _frame(p2, box)
    plain = PartitionReport(box, [list(c) for c in report.components],
                            report.component_labels, report.soundness_failures,
                            report.label_splits)
    assert plain.to_json(p2) == report.to_json(p2) == partition_json(p2, box)
    assert plain.to_json(build_root_datum("p", n=2)) == report.to_json(p2)
    assert box.__dict__["_frame"] is frame


# -- the label pass against the point-by-point partition it replaced ----------

PARTITION_DATA = [("gl", {"m": 1, "n": 1}), ("gl", {"m": 2, "n": 1}), ("gl", {"m": 2, "n": 2}),
                  ("osp2", {"n": 1}), ("osp2", {"n": 2}), ("p", {"n": 2}), ("p", {"n": 3}),
                  ("osp32", {})]


def _partition_boxes(rng, dim, count):
    """Boxes of 1 to 60 points with integer and fractional anchors and flat
    axes (lo = hi)."""
    boxes = []
    while len(boxes) < count:
        anchor = tuple(rng.choice([0, 1, -1, Fraction(1, 2), Fraction(-1, 3)])
                       for _ in range(dim))
        lo = tuple(Fraction(rng.randint(-4, 1)) for _ in range(dim))
        hi = tuple(l if rng.random() < 0.3 else l + rng.randint(1, 3) for l in lo)
        box = WeightBox(lo, hi, rng.choice([None, anchor]))
        if 1 <= box.count() <= 60:
            boxes.append(box)
    return boxes


def test_partition_matches_point_by_point_reference():
    """partition_box labels the box frame's lattice, proving integrality
    once per box; its report equals the point-by-point partition, and a
    box it refuses is refused alike.  Every box it answers is integral."""
    seen = set()
    for family, params in PARTITION_DATA:
        datum = build_root_datum(family, **params)
        rng = random.Random(f"partition:{family}:{sorted(params.items())}")
        answered = False
        for box in _partition_boxes(rng, datum.dim, 30):
            enlarge = rng.random() < 0.7
            try:
                expected = partition_json(datum, box, enlarge)
            except SuperlinkError as refusal:
                with pytest.raises(SuperlinkError) as got:
                    partition_box(datum, box, enlarge)
                assert (type(got.value), str(got.value)) == (type(refusal), str(refusal))
                seen.add("refused")
                continue
            assert partition_box(datum, box, enlarge).to_json(datum) == expected, box
            assert _frame(datum, box).all_integral
            answered = True
            if expected["label_splits"]:
                seen.add("split")
        assert answered, family
    assert seen == {"refused", "split"}


@pytest.mark.parametrize("family,params", PARTITION_DATA + FRAME_DATA[-2:],
                         ids=lambda v: str(v))
def test_box_wide_integrality_proof(family, params):
    """The frame's anchor test decides every point: each point of a box is
    integral exactly when the frame says the anchor is, the coroots being
    integer vectors; and every integer-anchored box, the shape of
    validate's boxes, is integral."""
    datum = build_root_datum(family, **params)
    rng = random.Random(f"proof:{family}:{sorted(params.items())}")
    failed = 0
    for box in _random_boxes(rng, datum.dim, 12) + _partition_boxes(rng, datum.dim, 20):
        frame = _frame(datum, box)
        assert {is_integral(datum, w) for w in box_points(box)} == {frame.all_integral}, box
        failed += not frame.all_integral
    assert failed or not datum.even_positive  # not vacuous where coroots exist
    for _ in range(20):
        lo = tuple(Fraction(rng.randint(-6, 0)) for _ in range(datum.dim))
        hi = tuple(l + rng.randint(0, 4) for l in lo)
        anchor = rng.choice([None, tuple(Fraction(rng.randint(-3, 3)) for _ in lo)])
        assert _frame(datum, WeightBox(lo, hi, anchor)).all_integral


def test_partition_p2(p2):
    report = partition_box(p2, WeightBox.cube(2, -6, 6))
    assert report.sound
    assert len(report.components) == 3
    assert sorted(l.payload[0] for l in report.component_labels) == [0, 1, 2]


def test_partition_gl11(gl11):
    report = partition_box(gl11, WeightBox.cube(2, -5, 5))
    assert report.sound
    sizes = sorted(len(c) for c in report.components)
    # the atypical anti-diagonal forms one 11-point component; typical
    # points are dot-isolated (W is trivial)
    assert sizes[-1] == 11
    assert sizes[:-1] == [1] * 110
    assert not report.label_splits


def test_a_component_with_two_labels_is_a_soundness_failure(gl11, monkeypatch, capsys):
    """A label that changes inside a linkage component is reported, by
    partition_box as by the point-by-point reference, and validate exits 1
    on it: here the gl key's count gains 10 where floor(mu_0 / D) is even."""
    from superlink import blocks, cli
    label = blocks._label

    def corrupted(datum, D, mu):
        a, b, count = label(datum, D, mu)
        return a, b, count + 10 * (mu[0] // D % 2 == 0)

    monkeypatch.setattr(blocks, "_label", corrupted)
    monkeypatch.setattr(oracle, "_label", corrupted)
    box = WeightBox.cube(2, -2, 2)
    report = partition_box(gl11, box)
    assert not report.sound
    assert [f["representative"] for f in report.soundness_failures] == ["-2|2"]
    (labels,) = [f["labels"] for f in report.soundness_failures]
    assert sorted(json.loads(text)["atyp"] for text in labels) == [1, 11]
    assert report.to_json(gl11) == partition_json(gl11, box)
    code = cli.main(["validate", "--family", "gl", "--m", "1", "--n", "1", "--box=-2..2"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["sound"] is False


def test_partition_reductive_a2_components_are_orbits(red_a2):
    box = WeightBox.cube(3, -2, 2)
    report = partition_box(red_a2, box)
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
    report = partition_box(osp24, box, enlarge=True)
    assert report.sound
    assert report.label_splits  # the slab genuinely splits labels
    assert all(s["merged_after_enlargement"] for s in report.label_splits)


def test_report_json_round_trip(p2):
    import json
    report = partition_box(p2, WeightBox.cube(2, -3, 3))
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
    engine = {"bruhat_leq", "kl_polynomial", "_tables", "_KLMemo", "_index", "_memo",
              "left_mult"}
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
    with pytest.raises(CapExceededError, match=r"^\|W\| = 5040 exceeds cross-check cap 1152$"):
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


# Each package name that oracle.py imports, pinned as one of three things:
# "checked", the engine code under check (labels, KL polynomials); "plain",
# a type, a constant or a helper that holds no engine table; or the id of
# the reference test that checks the table the name shares with the engine
# without going through the engine.  verma_multiplicities is the Shapovalov
# oracle itself, pinned to its own ledger.
ORACLE_READS = {
    ("blocks", "BlockLabel"): "plain",
    ("blocks", "_label"): "checked",
    ("blocks", "_label_shift"): "checked",
    ("blocks", "_payload"): "checked",
    ("blocks", "block_label"): "checked",
    ("errors", "CapExceededError"): "plain",
    ("errors", "DimensionMismatchError"): "plain",
    ("errors", "SuperlinkError"): "plain",
    ("errors", "UnsupportedInputError"): "plain",
    # the R-polynomial oracle's generators, FiniteWeylGroup.reflections,
    # are weyl.reflection_element on the integer frame
    ("kl", "FiniteWeylGroup"):
        "tests/test_weyl.py::test_reflection_element_matches_fraction_reflection",
    ("kl", "KLPolynomial"): "plain",
    ("kl", "MultTable"): "plain",
    ("kl", "kl_polynomial"): "checked",
    ("root_data", "RootDatum"): "plain",
    # the box oracle's moves and integrality test
    ("root_data", "_integer_frame"):
        "tests/test_properties.py::test_integer_frame_matches_fractions",
    ("root_data", "_scaled"): "plain",
    ("verma_oracle", "verma_multiplicities"):
        "tests/test_verma_oracle.py::test_oracle_is_independent_of_kl",
    ("weights", "Weight"): "plain",
    ("weyl", "WeylElement"): "plain",
    ("weyl", "_closure"): "plain",
}


def test_oracle_engine_reads_are_ledgered():
    """The box and R-polynomial oracles read from the engine exactly the
    names of ORACLE_READS, and every reference test named there exists: a
    new engine import must be ledgered before it is used."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("superlink") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                reads |= {(node.module, a.name) for a in node.names}
            else:
                assert not node.module.startswith("superlink")
    assert reads == set(ORACLE_READS)
    for pin in ORACLE_READS.values():
        if pin in ("checked", "plain"):
            continue
        path, name = pin.split("::")
        tests = ast.parse((root / path).read_text(encoding="utf-8"))
        assert name in {f.name for f in tests.body if isinstance(f, ast.FunctionDef)}, pin
