"""Reference implementations of the box oracle, on Fractions.

`box_points` and `box_contains` enumerate and test a `WeightBox` in
Fraction arithmetic, which the oracle's integer frame replaced;
`linkage_neighbors` computes the box moves in the same arithmetic, keeping
an image only where `box_contains` puts it on the box's lattice, and
`linkage_closure` closes a seed under them.  `partition_json` is the
straightforward form of `superlink.oracle.partition_box`, which labels the
frame's integer lattice and proves integrality once per box: here every
box point is labelled through `block_label`, which checks its integrality
and refuses the first point it cannot label, and every point no component
holds yet seeds a `linkage_closure`.  Tests compare the library with them.
"""
import itertools
import math

from root_data_reference import bilinear, reflect
from superlink import Weight, block_label


def box_points(box):
    """The box's weights, each axis ascending, in `itertools.product` order;
    refuses a box above the oracle's cap."""
    box._check_cap()
    axes = []
    for a, lo, hi in zip(box.anchor, box.lo, box.hi):
        v = a + math.ceil(lo - a)
        axes.append([])
        while v <= hi:
            axes[-1].append(v)
            v += 1
    return [Weight(combo) for combo in itertools.product(*axes)]


def box_contains(box, w):
    """w lies within the bounds, on the lattice anchor + Z^dim."""
    return all(lo <= c <= hi and (c - a).denominator == 1
               for a, lo, hi, c in zip(box.anchor, box.lo, box.hi, w))


def linkage_reflection(datum, alpha, lam):
    """The label-preserving W-move: dot action, except rho-shifted for osp(3|2)."""
    shift = datum.rho if datum.family == "osp32" else datum.rho0
    return reflect(datum, alpha, lam + shift) - shift


def p_shift(lam, k, step):
    """lam + step e_k: the p(n) move for step = +-2."""
    return Weight([c + step if i == k else c for i, c in enumerate(lam)])


def linkage_neighbors(datum, lam, box):
    """The box moves of lam, in the order the oracle yields them: simple
    reflections, then each isotropic line's shifts lam - c a for c = 1, 2,
    ... and then lam + c a, then the p(n) shifts; an image is kept when
    box_contains puts it on the box's lattice."""
    for alpha in datum.simple_even:
        img = linkage_reflection(datum, alpha, lam)
        if box_contains(box, img):
            yield img
    if datum.isotropic_roots:
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
                    if not box_contains(box, img):
                        break
                    yield img
                    c += 1
    if datum.family == "p":
        for k in range(datum.dim):
            for sign in (2, -2):
                img = p_shift(lam, k, sign)
                if box_contains(box, img):
                    yield img


def linkage_closure(datum, seed, box):
    """The sorted component of seed under linkage_neighbors."""
    seen, todo = {seed}, [seed]
    while todo:
        for w in linkage_neighbors(datum, todo.pop(), box):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return sorted(seen)


def partition_json(datum, box, enlarge=True):
    """What `partition_box(datum, box, enlarge).to_json(datum)` reads."""
    points = box_points(box)
    labels = {w: block_label(datum, w) for w in points}
    reached, components, failures = set(), [], []
    for w in points:
        if w in reached:
            continue
        comp = linkage_closure(datum, w, box)
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
            big = set(linkage_closure(datum, reps[0], box.enlarged()))
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
