"""Property tests: root_data's integer frame against Fractions, the weight
and signed-cycle literal round trips, block-label invariance under every
move of the box oracle's linkage generators, the box oracle on boxes of
integral anchors against its Fraction reference, and typicality against
its Fraction reference."""
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from superlink import block_label, build_root_datum, is_integral, typicality  # noqa: E402
from superlink.oracle import LinkageGenerators, WeightBox, _frame, partition_box  # noqa: E402
from superlink.root_data import _integer_frame, _scaled  # noqa: E402
from superlink.weights import Weight, parse_weight  # noqa: E402
from superlink.weyl import WeylElement, validate_element  # noqa: E402

from blocks_reference import typicality_fractions  # noqa: E402
from oracle_reference import box_contains, partition_json  # noqa: E402
from root_data_reference import pairing_coroot  # noqa: E402

DATA = [("gl", {"m": 1, "n": 1}), ("gl", {"m": 2, "n": 2}), ("gl", {"m": 3, "n": 2}),
        ("osp2", {"n": 1}), ("osp2", {"n": 3}), ("p", {"n": 2}), ("p", {"n": 5}),
        ("osp32", {}), ("reductive", {"factors": "A2xC2"}), ("reductive", {"factors": "C3"})]
LABEL_DATA = [("gl", {"m": 2, "n": 1}), ("gl", {"m": 2, "n": 2}), ("osp2", {"n": 2}),
              ("p", {"n": 3}), ("osp32", {})]
BOX_DATA = [("gl", {"m": 1, "n": 1}), ("gl", {"m": 2, "n": 1}), ("osp2", {"n": 1}),
            ("osp2", {"n": 2}), ("p", {"n": 2}), ("p", {"n": 3}), ("osp32", {}),
            ("reductive", {"factors": "A2"}), ("reductive", {"factors": "C2"})]
TYPICALITY_DATA = [*(("gl", {"m": m, "n": n}) for m in (1, 2, 3) for n in (1, 2, 3)),
                   *(("osp2", {"n": n}) for n in (1, 2, 3)), ("osp32", {})]
COSETS = (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4))


def _ids(data):
    return ["-".join([f, *map(str, p.values())]) for f, p in data]


def _check(test):
    return settings(database=None, derandomize=True, max_examples=30, deadline=None)(test)


def weights(datum):
    """Rational weights with small numerators and denominators."""
    coords = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return st.lists(coords, min_size=datum.dim, max_size=datum.dim).map(Weight)


@st.composite
def elements(draw, datum):
    """A signed permutation respecting the datum's blocks: any permutation
    of each window, with signs only in type C windows."""
    images = [0] * datum.dim
    for kind, start, size in datum.blocks:
        window = draw(st.permutations(range(start, start + size)))
        for i, j in zip(range(start, start + size), window):
            images[i] = (j + 1) * (draw(st.sampled_from((1, -1))) if kind == "C" else 1)
    return WeylElement(tuple(images))


@st.composite
def integral_weights(draw, datum):
    """An integral weight: integers, each type A window shifted by one
    coset fraction (osp(3|2): its e coordinate by 1/2) or not at all."""
    coords = [Fraction(c) for c in draw(st.lists(st.integers(-4, 4), min_size=datum.dim,
                                                 max_size=datum.dim))]
    if draw(st.booleans()):
        for kind, start, size in datum.blocks:
            c = draw(st.sampled_from(COSETS))
            for i in range(start, start + size):
                coords[i] += c if kind == "A" else 0
        if datum.family == "osp32":
            coords[1] += Fraction(1, 2)
    lam = Weight(coords)
    assume(is_integral(datum, lam))
    return lam


@pytest.mark.parametrize("family, params", DATA, ids=_ids(DATA))
def test_integer_frame_matches_fractions(family, params, hypothesis_home):
    """The frame's ints are D rho0, D rho and the coroot pairings of the
    unit weights; (lam, shift) -> (E, N) gives E (lam + shift / D) for the
    least E, and converts back; D w is integral exactly when _scaled says."""
    datum = build_root_datum(family, **params)
    frame = _integer_frame(datum)
    assert [Fraction(v, frame.D) for v in frame.rho0] == list(datum.rho0)
    assert [Fraction(v, frame.D) for v in frame.rho] == list(datum.rho)
    units = [Weight([int(i == j) for j in range(datum.dim)]) for i in range(datum.dim)]
    for alpha, root, coroot in zip(datum.even_positive, frame.roots, frame.coroots):
        assert [dict(root).get(i, 0) for i in range(datum.dim)] == list(alpha.weight)
        assert [dict(coroot).get(i, 0) for i in range(datum.dim)] \
            == [pairing_coroot(datum, u, alpha) for u in units]

    @_check
    @given(weights(datum), st.sampled_from(["rho0", "rho"]), st.integers(1, 12))
    def round_trip(lam, name, D):
        shift = getattr(frame, name)
        E, n = frame.shifted(lam, shift)
        assert E == math.lcm(frame.D, *(c.denominator for c in lam))
        assert all(type(v) is int for v in n)
        assert list(n) == [E * (a + Fraction(s, frame.D)) for a, s in zip(lam, shift)]
        assert frame.unshifted(E, [n, n + tuple(-v for v in n)], shift) == [lam, lam]
        scaled = [D * c for c in lam]
        assert _scaled(lam, D) == (tuple(map(int, scaled))
                                   if all(c.denominator == 1 for c in scaled) else None)

    round_trip()


@pytest.mark.parametrize("family, params", DATA, ids=_ids(DATA))
def test_literal_round_trips(family, params, hypothesis_home):
    """A weight's literal, block separators included, parses back to it,
    and a valid element's signed cycles parse back to it."""
    datum = build_root_datum(family, **params)

    @_check
    @given(weights(datum), elements(datum))
    def round_trip(w, x):
        text = datum.format_weight(w)
        assert sum(text.count(sep) for sep in "|;") == len(datum.literal_seps)
        assert parse_weight(text) == datum.parse_weight(text) == w
        validate_element(datum, x)
        assert WeylElement.from_cycles(x.to_cycles(), datum.dim) == x

    round_trip()


@pytest.mark.parametrize("family, params", LABEL_DATA, ids=_ids(LABEL_DATA))
def test_label_invariant_under_linkage_moves(family, params, hypothesis_home):
    """Every image LinkageGenerators().neighbors yields, in a box around an
    integral weight, carries the weight's block label."""
    datum = build_root_datum(family, **params)
    gens = LinkageGenerators()
    moved = []

    @_check
    @given(integral_weights(datum))
    def invariant(lam):
        box = WeightBox(tuple(c - 4 for c in lam), tuple(c + 4 for c in lam), lam.coords)
        frame = _frame(datum, box)
        label = block_label(datum, lam)
        for image in gens.neighbors(datum, frame.lattice(lam), frame):
            assert block_label(datum, frame.weight(image)) == label
            moved.append(image)

    invariant()
    assert moved


@st.composite
def integral_boxes(draw, datum):
    """A box of 1 to 125 points through a random integral anchor, each
    bound on or off the lattice anchor + Z^dim."""
    anchor = draw(integral_weights(datum)).coords
    offsets = st.fractions(min_value=-3, max_value=1, max_denominator=3)
    lo = tuple(a + draw(offsets) for a in anchor)
    hi = tuple(l + draw(st.integers(0, 4)) - draw(st.sampled_from((0, Fraction(1, 2))))
               for l in lo)
    box = WeightBox(lo, hi, anchor)
    assume(box.count())
    return box


@pytest.mark.parametrize("family, params", BOX_DATA, ids=_ids(BOX_DATA))
def test_box_moves_stay_on_the_lattice(family, params, hypothesis_home):
    """In a box through an integral anchor, every image neighbors yields
    lies in the box and on anchor + Z^dim, which it does not test; and
    partition_box equals the Fraction reference, whose moves keep an image
    only where the lattice test passes."""
    datum = build_root_datum(family, **params)
    gens = LinkageGenerators()
    moved = []

    @_check
    @given(integral_boxes(datum), st.booleans())
    def invariant(box, enlarge):
        frame = _frame(datum, box)
        assert frame.all_integral
        for n in frame.points():
            for image in gens.neighbors(datum, n, frame):
                assert box_contains(box, frame.weight(image))
                moved.append(image)
        assert partition_box(datum, box, enlarge).to_json(datum) \
            == partition_json(datum, box, enlarge)

    invariant()
    assert moved


@pytest.mark.parametrize("family, params", TYPICALITY_DATA, ids=_ids(TYPICALITY_DATA))
def test_typicality_matches_fractions(family, params, hypothesis_home):
    """The atypicality degree read off the integer label key equals the one
    the Fraction reference reads off lam + rho, on integral weights, on
    half-integer weights (often atypical) and on any rational weight."""
    datum = build_root_datum(family, **params)
    halves = st.lists(st.integers(-8, 8).map(lambda k: Fraction(k, 2)),
                      min_size=datum.dim, max_size=datum.dim).map(Weight)
    kinds = set()

    @_check
    @given(st.one_of(integral_weights(datum), halves, weights(datum)))
    def agree(lam):
        got = typicality(datum, lam)
        assert got == typicality_fractions(datum, lam), lam
        kinds.add((got.kind, all(c.denominator == 1 for c in lam)))

    agree()
    assert {"typical", "atypical"} <= {kind for kind, _ in kinds}
    assert {True, False} <= {whole for _, whole in kinds}
