from fractions import Fraction

import pytest

from superlink import (CapExceededError, UnsupportedInputError, block_label,
                       build_root_datum, dot, verma_mult, verma_series_rank_small)
from superlink.kl import FiniteWeylGroup, kl_polynomial
from superlink.oracle import (LinkageGenerators, WeightBox, bfs_linkage_closure,
                              default_generators, kl_cross_check, kl_via_inversion,
                              partition_box)
from superlink.weights import Weight
from superlink.weyl import antidominant_rep, reflection_element


def test_box_points_and_contains():
    box = WeightBox.cube(2, -2, 2)
    pts = list(box.points())
    assert len(pts) == 25 == box.count()
    assert box.contains(Weight([0, -2]))
    assert not box.contains(Weight([0, 3]))
    assert not box.contains(Weight([0, Fraction(1, 2)]))  # off the lattice
    anchored = WeightBox((Fraction(-1),), (Fraction(1),), Fraction(1), (Fraction(1, 2),))
    assert [w.coords[0] for w in anchored.points()] == [Fraction(-1, 2), Fraction(1, 2)]


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
              FiniteWeylGroup.symmetric(4), FiniteWeylGroup.type_c(2)):
        report = kl_cross_check(W)
        assert report.ok, report.diffs
        assert report.pairs_checked == W.order ** 2


def test_inversion_method_agrees_on_pinned_pair():
    S4 = FiniteWeylGroup.symmetric(4)
    s = S4.reflections
    w = s[1].compose(s[0]).compose(s[2]).compose(s[1])
    table = kl_via_inversion(S4)
    assert table[(s[1].images, w.images)].coeffs == (1, 1)


@pytest.mark.slow
def test_kl_cross_check_extended():
    assert kl_cross_check(FiniteWeylGroup.type_c(3)).ok
    assert kl_cross_check(FiniteWeylGroup.symmetric(5)).ok


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
