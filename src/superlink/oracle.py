"""Brute-force verifiers: BFS linkage closures on weight boxes and an
R-polynomial cross-check of the KL engine.

The box oracle enumerates a bounded integer lattice of weights, closes each
seed under the family's linkage generators, and compares the resulting
components against closed-form block labels.  A component carrying two
distinct labels is a soundness failure of the labels; a label split across
components is only a box artifact, and an automatic enlargement pass checks
whether a bigger box merges the pieces.  The oracle can prove that two
weights are linked; it can never prove they are not.

Generator moves, per family:

* every family: reflections of simple even roots (dot action; rho-shifted
  for osp(3|2), whose rho1 is not W-invariant);
* gl / osp(2|2n) / osp(3|2): lam -> lam - c a for isotropic roots a with
  <lam + rho, a> = 0 and every integer c keeping the image inside the box
  (single steps c = +-1 plus transitivity would silently depend on
  intermediate points staying inside the box);
* p(n): lam -> lam +- 2 e_k.

The KL cross-check recomputes every polynomial through the R-polynomial
inversion identity q^l P(1/q) - P(q) = sum_z R_{x,z} P_{z,w} and diffs the
two tables; it shares no code path with the KL recursion.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .blocks import BlockLabel, block_label, linkage_reflection
from .errors import CapExceededError, UnsupportedInputError
from .kl import FiniteWeylGroup, KLPolynomial, MultTable, bruhat_leq, kl_polynomial
from .root_data import RootDatum, bilinear
from .verma_oracle import verma_multiplicities
from .weights import Weight
from .weyl import _closure

BOX_CAP = 10 ** 6


@dataclass(frozen=True)
class WeightBox:
    """An axis-aligned lattice box: anchor + step Z^dim, clipped to [lo, hi]."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]
    step: Fraction = Fraction(1)
    anchor: tuple[Fraction, ...] | None = None

    @staticmethod
    def cube(dim: int, lo, hi, step=1) -> "WeightBox":
        return WeightBox(tuple(Fraction(lo) for _ in range(dim)),
                         tuple(Fraction(hi) for _ in range(dim)),
                         Fraction(step))

    @property
    def dim(self) -> int:
        return len(self.lo)

    def _anchor(self) -> tuple[Fraction, ...]:
        return self.anchor if self.anchor is not None else tuple(
            Fraction(0) for _ in range(self.dim))

    def contains(self, w: Weight) -> bool:
        anchor = self._anchor()
        for a, lo, hi, c in zip(anchor, self.lo, self.hi, w):
            if not (lo <= c <= hi):
                return False
            if ((c - a) / self.step).denominator != 1:
                return False
        return True

    def count(self) -> int:
        total = 1
        anchor = self._anchor()
        for a, lo, hi in zip(anchor, self.lo, self.hi):
            first = a + self.step * math.ceil((lo - a) / self.step)
            if first > hi:
                return 0
            total *= int((hi - first) // self.step) + 1
        return total

    def points(self, cap: int = BOX_CAP):
        if any(l > h for l, h in zip(self.lo, self.hi)):
            return
        if self.count() > cap:
            raise CapExceededError(f"box holds {self.count()} points, cap is {cap}")
        anchor = self._anchor()
        axes = []
        for a, lo, hi in zip(anchor, self.lo, self.hi):
            first = a + self.step * math.ceil((lo - a) / self.step)
            vals = []
            v = first
            while v <= hi:
                vals.append(v)
                v += self.step
            axes.append(vals)
        for combo in itertools.product(*axes):
            yield Weight(combo)

    def enlarged(self, pad: Fraction | int | None = None) -> "WeightBox":
        if pad is None:
            width = max(h - l for l, h in zip(self.lo, self.hi))
            pad = max(Fraction(2), width / 2)
        pad = Fraction(pad)
        return WeightBox(tuple(l - pad for l in self.lo),
                         tuple(h + pad for h in self.hi), self.step, self.anchor)


@dataclass(frozen=True)
class LinkageGenerators:
    """The move set closing the family's linkage relation inside a box."""

    reflection_moves: bool = True
    isotropic_shifts: bool = True
    p_shifts: bool = True

    @staticmethod
    def none() -> "LinkageGenerators":
        return LinkageGenerators(False, False, False)

    def neighbors(self, datum: RootDatum, lam: Weight, box: WeightBox):
        if self.reflection_moves:
            for alpha in datum.simple_even:
                img = linkage_reflection(datum, alpha, lam)
                if box.contains(img):
                    yield img
        if self.isotropic_shifts and datum.isotropic_roots:
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
        if self.p_shifts and datum.family == "p":
            for k in range(datum.dim):
                for sign in (2, -2):
                    img = lam.replace(k, lam[k] + sign)
                    if box.contains(img):
                        yield img


def default_generators(datum: RootDatum) -> LinkageGenerators:
    return LinkageGenerators()


def bfs_linkage_closure(datum: RootDatum, seed: Weight, box: WeightBox,
                        gens: LinkageGenerators) -> list[Weight]:
    """The connected component of seed under gens, restricted to the box."""
    if not box.contains(seed):
        raise UnsupportedInputError("seed lies outside the box")
    levels = _closure(seed, lambda w: gens.neighbors(datum, w, box))
    return sorted(itertools.chain.from_iterable(levels))


@dataclass
class PartitionReport:
    """partition_box outcome: components, labels, and the two defect lists."""

    box: WeightBox
    components: list[list[Weight]]
    component_labels: list[BlockLabel]
    soundness_failures: list[dict] = field(default_factory=list)
    label_splits: list[dict] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        return not self.soundness_failures

    def to_json(self, datum: RootDatum) -> dict:
        return {
            "points": sum(len(c) for c in self.components),
            "components": [
                {"size": len(comp),
                 "label": self.component_labels[i].to_json(),
                 "representative": datum.format_weight(comp[0])}
                for i, comp in enumerate(self.components)
            ],
            "soundness_failures": self.soundness_failures,
            "label_splits": self.label_splits,
            "sound": self.sound,
        }


def partition_box(datum: RootDatum, box: WeightBox, gens: LinkageGenerators,
                  enlarge: bool = True) -> PartitionReport:
    """Partition the box into linkage components and audit the labels.

    Reports (a) components carrying more than one closed-form label (a
    soundness failure) and (b) labels split across several components,
    annotated with whether one enlargement pass merges them.
    """
    points = list(box.points())
    labels = {w: block_label(datum, w) for w in points}
    unvisited = set(points)
    components: list[list[Weight]] = []
    comp_labels: list[BlockLabel] = []
    failures: list[dict] = []
    comp_of: dict[Weight, int] = {}
    for seed in points:
        if seed not in unvisited:
            continue
        comp = bfs_linkage_closure(datum, seed, box, gens)
        for w in comp:
            unvisited.discard(w)
            comp_of[w] = len(components)
        seen_labels = sorted({labels[w].json_str() for w in comp})
        if len(seen_labels) > 1:
            failures.append({
                "representative": datum.format_weight(comp[0]),
                "labels": seen_labels,
            })
        components.append(comp)
        comp_labels.append(labels[comp[0]])
    by_label: dict[str, list[int]] = {}
    for i, lbl in enumerate(comp_labels):
        by_label.setdefault(lbl.json_str(), []).append(i)
    splits = []
    for key, comps in sorted(by_label.items()):
        if len(comps) <= 1:
            continue
        entry = {"label": key,
                 "component_count": len(comps),
                 "merged_after_enlargement": None}
        if enlarge:
            big = box.enlarged()
            reps = [components[i][0] for i in comps]
            reached = set(bfs_linkage_closure(datum, reps[0], big, gens))
            entry["merged_after_enlargement"] = all(r in reached for r in reps[1:])
        splits.append(entry)
    return PartitionReport(box, components, comp_labels, failures, splits)


# -- KL cross-check ---------------------------------------------------------

class _RPolynomials:
    """R-polynomials via the standard descent recursion (signed coefficients)."""

    def __init__(self, W: FiniteWeylGroup):
        self.W = W
        self._memo: dict = {}

    def get(self, x, w) -> tuple[int, ...]:
        key = (x.images, w.images)
        if key in self._memo:
            return self._memo[key]
        W = self.W
        if x == w:
            result: tuple[int, ...] = (1,)
        elif not bruhat_leq(W, x, w):
            result = ()
        else:
            i = W.left_descent(w)
            sw = W.left_mult(i, w)
            sx = W.left_mult(i, x)
            if W.length(sx) < W.length(x):
                result = self.get(sx, sw)
            else:
                a = self.get(x, sw)      # (q - 1) R_{x, sw}
                b = self.get(sx, sw)     # q R_{sx, sw}
                m = max(len(a) + 1, len(b) + 1)
                out = [0] * m
                for k, c in enumerate(a):
                    out[k + 1] += c
                    out[k] -= c
                for k, c in enumerate(b):
                    out[k + 1] += c
                while out and out[-1] == 0:
                    out.pop()
                result = tuple(out)
        self._memo[key] = result
        return result


def kl_via_inversion(W: FiniteWeylGroup) -> dict:
    """All P_{x,w} via the inversion identity; independent of the recursion."""
    rp = _RPolynomials(W)
    elements = W.elements()
    table: dict = {}
    for w in elements:
        below = [x for x in elements if bruhat_leq(W, x, w)]
        below.sort(key=lambda x: -W.length(x))
        for x in below:
            if x == w:
                table[(x.images, w.images)] = (1,)
                continue
            L = W.length(w) - W.length(x)
            acc = [0] * (L + 2)
            for z in below:
                if z == x or not bruhat_leq(W, x, z):
                    continue
                r = rp.get(x, z)
                p = table[(z.images, w.images)]
                for i, ci in enumerate(r):
                    for j, cj in enumerate(p):
                        acc[i + j] += ci * cj
            coeffs = tuple(-acc[i] for i in range((L - 1) // 2 + 1))
            # the identity q^L P(1/q) - P(q) = sum must balance exactly
            check = [0] * (L + 2)
            for i, c in enumerate(coeffs):
                check[L - i] += c
                check[i] -= c
            if check != acc:
                raise UnsupportedInputError("R-polynomial inversion failed to balance")
            table[(x.images, w.images)] = coeffs
    return {k: KLPolynomial.of(v) for k, v in table.items()}


@dataclass
class CrossCheckReport:
    group_order: int
    pairs_checked: int
    diffs: list[tuple]

    @property
    def ok(self) -> bool:
        return not self.diffs

    def to_json(self) -> dict:
        return {"group_order": self.group_order,
                "pairs_checked": self.pairs_checked,
                "diffs": [list(map(str, d)) for d in self.diffs],
                "ok": self.ok}


def kl_cross_check(W: FiniteWeylGroup, cap: int = 1152) -> CrossCheckReport:
    """Diff the KL recursion against the R-polynomial inversion on all pairs."""
    if W.order > cap:
        raise CapExceededError(f"|W| = {W.order} exceeds cross-check cap {cap}")
    inverted = kl_via_inversion(W)
    elements = W.elements()
    diffs = []
    pairs = 0
    for x in elements:
        for w in elements:
            pairs += 1
            direct = kl_polynomial(W, x, w)
            other = inverted.get((x.images, w.images), KLPolynomial.of(()))
            if direct != other:
                diffs.append((x.to_cycles(), w.to_cycles(),
                              direct.coeffs, other.coeffs))
    return CrossCheckReport(W.order, pairs, diffs)


def verma_series_rank_small(datum: RootDatum, lam: Weight) -> MultTable:
    """Ground-truth composition multiplicities over the dot orbit of lam.

    Rank <= 2 reductive data only; see verma_oracle for the machinery.
    """
    entries = verma_multiplicities(datum, lam)
    return MultTable(dict(entries), provenance="character-oracle")
