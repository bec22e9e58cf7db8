"""Reference implementations of the box oracle, on Fractions.

`box_points` and `box_contains` enumerate and test a `WeightBox` in
Fraction arithmetic, which the oracle's integer frame replaced;
`linkage_reflection` and `p_shift` are two of the box moves in the same
arithmetic.  `partition_json` is the straightforward form of
`superlink.oracle.partition_box`, which labels the frame's integer lattice
and proves integrality box-wide: here every box point is labelled through
`block_label`, which checks its integrality and refuses the first point it
cannot label, and every point no component holds yet seeds a
`bfs_linkage_closure`.  Tests compare the library with them.
"""
import itertools
import math

from root_data_reference import reflect
from superlink import Weight, block_label
from superlink.oracle import bfs_linkage_closure


def box_points(box):
    """The box's weights, each axis ascending, in `itertools.product` order;
    refuses a box above the oracle's cap."""
    box._check_cap()
    axes = []
    for a, lo, hi in zip(box._anchor(), box.lo, box.hi):
        v = a + box.step * math.ceil((lo - a) / box.step)
        axes.append([])
        while v <= hi:
            axes[-1].append(v)
            v += box.step
    return [Weight(combo) for combo in itertools.product(*axes)]


def box_contains(box, w):
    """w lies within the bounds, on the lattice anchor + step Z^dim."""
    return all(lo <= c <= hi and ((c - a) / box.step).denominator == 1
               for a, lo, hi, c in zip(box._anchor(), box.lo, box.hi, w))


def linkage_reflection(datum, alpha, lam):
    """The label-preserving W-move: dot action, except rho-shifted for osp(3|2)."""
    shift = datum.rho if datum.family == "osp32" else datum.rho0
    return reflect(datum, alpha, lam + shift) - shift


def p_shift(lam, k, step):
    """lam + step e_k: the p(n) move for step = +-2."""
    return Weight([c + step if i == k else c for i, c in enumerate(lam)])


def partition_json(datum, box, gens, enlarge=True):
    """What `partition_box(datum, box, gens, enlarge).to_json(datum)` reads."""
    points = box_points(box)
    labels = {w: block_label(datum, w) for w in points}
    reached, components, failures = set(), [], []
    for w in points:
        if w in reached:
            continue
        comp = bfs_linkage_closure(datum, w, box, gens)
        reached.update(comp)
        seen = {labels[v] for v in comp}
        if len(seen) > 1:
            failures.append({"representative": datum.format_weight(comp[0]),
                             "labels": sorted(label.json_str() for label in seen)})
        components.append(comp)
    by_label = {}
    for i, comp in enumerate(components):
        by_label.setdefault(labels[comp[0]].json_str(), []).append(i)
    splits = []
    for text, comps in sorted(by_label.items()):
        if len(comps) < 2:
            continue
        merged = None
        if enlarge:
            reps = [components[i][0] for i in comps]
            big = set(bfs_linkage_closure(datum, reps[0], box.enlarged(), gens))
            merged = all(r in big for r in reps[1:])
        splits.append({"label": text, "component_count": len(comps),
                       "merged_after_enlargement": merged})
    return {
        "points": len(points),
        "components": [{"size": len(comp),
                        "label": labels[comp[0]].to_json(),
                        "representative": datum.format_weight(comp[0])}
                       for comp in components],
        "soundness_failures": failures,
        "label_splits": splits,
        "sound": not failures,
    }
