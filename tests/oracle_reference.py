"""Reference implementation of the box partition, point by point.

This is the straightforward form `superlink.oracle.partition_box` replaced
with a label pass over the box frame's integer lattice and a box-wide
integrality proof: every point of `WeightBox.points` is labelled through
`block_label`, which checks its integrality and refuses the first point it
cannot label, and every point no component holds yet seeds a
`bfs_linkage_closure`.  Tests compare the library's report with it.
"""
from superlink import block_label
from superlink.oracle import bfs_linkage_closure


def partition_json(datum, box, gens, enlarge=True):
    """What `partition_box(datum, box, gens, enlarge).to_json(datum)` reads."""
    points = list(box.points())
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
