"""Brute-force verifiers: BFS linkage closures on weight boxes and an
R-polynomial cross-check of the KL engine.

The box oracle enumerates a box, the lattice anchor + Z^dim clipped to
[lo, hi], closes each seed under the family's linkage generators, and
compares the resulting components against closed-form block labels.  A
component carrying two distinct labels is a soundness failure of the labels;
a label split across components is only a box artifact, and an automatic
enlargement pass checks whether a bigger box merges the pieces.  The oracle
can prove that two weights are linked; it can never prove they are not.

Generator moves, per family:

* every family: reflections of simple even roots (dot action; rho-shifted
  for osp(3|2), whose rho1 is not W-invariant);
* gl / osp(2|2n) / osp(3|2): lam -> lam - c a for isotropic roots a with
  <lam + rho, a> = 0 and every integer c keeping the image inside the box
  (single moves c = +-1 plus transitivity would silently depend on
  intermediate points staying inside the box);
* p(n): lam -> lam +- 2 e_k.

The even coroots are integer vectors, so a box's points are integral
exactly when its anchor is; a box of a non-integral anchor is refused, as
simple reflections do not link non-integral weights.  Each move shifts an
integral weight by an integer vector, so only an image's bounds are tested.
The moves run on integer coordinates N = D lam over one common denominator
D per (datum, box) (see _Frame).  partition_box probes each unvisited seed
once: a seed whose every image is itself (it lies on a reflection's wall)
or that has none is its own one-point component, and only a seed that moves
is closed, through bfs_linkage_closure.  A component keeps its sorted
points N and builds the Weight of a point only when it is read (see
_Component): a validate report reads one per component, its representative.

The KL cross-check recomputes every polynomial through the R-polynomial
inversion identity q^l P(1/q) - P(q) = sum_z R_{x,z} P_{z,w} and diffs the
two tables.  It shares neither the recursion nor the element index of the
KL engine: it numbers the group itself by a BFS over the reflections, and
reads Bruhat order off R_{x,w} != 0 (Bjorner-Brenti, Combinatorics of
Coxeter Groups, Ch. 5).  The cross-check imports the KL engine when it runs,
and verma_series_rank_small imports kl and verma_oracle likewise, so a box
validation loads neither module.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .blocks import BlockLabel, _label, _label_shift, _payload, block_label
from .errors import CapExceededError, DimensionMismatchError, SuperlinkError, UnsupportedInputError
from .root_data import RootDatum, _integer_frame, _scaled
from .weights import Weight
from .weyl import WeylElement, _closure

if TYPE_CHECKING:
    from .kl import FiniteWeylGroup, MultTable

BOX_CAP = 10 ** 6


@dataclass(frozen=True)
class WeightBox:
    """An axis-aligned lattice box: anchor + Z^dim, clipped to [lo, hi].
    An anchor of None is stored as the origin."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]
    anchor: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.anchor is None:
            object.__setattr__(self, "anchor", tuple(Fraction(0) for _ in self.lo))
        if not len(self.lo) == len(self.hi) == len(self.anchor):
            raise DimensionMismatchError("box lo, hi and anchor differ in length")

    @staticmethod
    def cube(dim: int, lo, hi) -> "WeightBox":
        return WeightBox(tuple(Fraction(lo) for _ in range(dim)),
                         tuple(Fraction(hi) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.lo)

    def count(self) -> int:
        total = 1
        for a, lo, hi in zip(self.anchor, self.lo, self.hi):
            total *= max(0, math.floor(hi - a) - math.ceil(lo - a) + 1)
        return total

    def _check_cap(self, cap: int = BOX_CAP, name: str = "box") -> None:
        """Raise CapExceededError when the box holds more than cap points."""
        count = self.count()
        if count > cap:
            raise CapExceededError(f"{name} holds {count} points, cap is {cap}")

    def enlarged(self) -> "WeightBox":
        """The box padded on every side by half its widest side, at least 2."""
        width = max(h - l for l, h in zip(self.lo, self.hi))
        margin = max(Fraction(2), width / 2)
        return WeightBox(tuple(l - margin for l in self.lo),
                         tuple(h + margin for h in self.hi), self.anchor)


class _Frame:
    """A box's lattice in integer coordinates N = D lam, for the datum it
    holds.

    D is the least common denominator of the box's bounds and anchor and
    of root_data's integer frame, whose ints (rho0, rho, the roots and
    coroots) this frame scales, so box points and rho-shifts are integer
    vectors and the lattice anchor + Z^dim is anchor + D Z^dim in N.  Each
    linkage move is integer arithmetic on N.  lam is integral exactly when
    D divides sum_i c_i N_i for every even positive coroot c, an integer
    vector, so all_integral, the anchor's test, holds for every point of
    the box or for none.  Ordering N orders lam, since D > 0.  Block labels
    of every family are read off N + D shift as well (see blocks._label).
    """

    def __init__(self, datum: RootDatum, box: WeightBox):
        datum.check_dim(box.lo)  # the box's lo, hi and anchor share a length
        anchor = box.anchor
        ints = _integer_frame(datum)
        D = math.lcm(ints.D, *(c.denominator for c in (*box.lo, *box.hi, *anchor)))
        self.datum, self.D, self.dim = datum, D, datum.dim
        self.lo = tuple(c.numerator * (D // c.denominator) for c in box.lo)
        self.hi = tuple(c.numerator * (D // c.denominator) for c in box.hi)
        self.anchor = tuple(c.numerator * (D // c.denominator) for c in anchor)
        # each axis starts at a + D * ceil((lo - a) / D)
        self.axes = [range(a - D * ((a - lo) // D), hi + 1, D)
                     for a, lo, hi in zip(self.anchor, self.lo, self.hi)]
        # v -> v / D for every axis value
        self.values = {v: Fraction(v, D) for axis in self.axes for v in axis}
        k = D // ints.D  # scales the integer frame's ints to this one
        self.label_shift = tuple(k * v for v in _label_shift(datum))
        self.coroots = ints.coroots
        # the coroots are integer vectors: every point is integral iff the anchor is
        self.all_integral = all(sum(c * self.anchor[i] for i, c in coroot) % D == 0
                                for coroot in self.coroots)
        # lam -> s(lam + shift) - shift is N -> N - p a, p = k + sum_i c_i N_i
        shift = ints.rho if datum.family == "osp32" else ints.rho0
        self.reflections = [(ints.roots[j], ints.coroots[j], k * sum(
            c * shift[i] for i, c in ints.coroots[j])) for j in ints.simple]
        # per isotropic line {a, -a}, a its positive root, <lam + rho, a> = 0
        # reads k + sum_i f_i N_i = 0 with f_i = s_i a_i
        self.lines = []
        for a in (r.vector for r in datum.odd_positive if r.isotropic):
            form = tuple((i, int(datum.form_signature[i]) * v) for i, v in a)
            self.lines.append((a, form, k * sum(f * ints.rho[i] for i, f in form)))

    def points(self) -> list[tuple[int, ...]]:
        """The box's points N, in `itertools.product` order over the axes."""
        return list(itertools.product(*self.axes))

    def contains(self, n: tuple[int, ...]) -> bool:
        D = self.D
        for lo, hi, a, v in zip(self.lo, self.hi, self.anchor, n):
            if not lo <= v <= hi or (v - a) % D:
                return False
        return True

    def lattice(self, w: Weight) -> tuple[int, ...] | None:
        """D w, or None when w has the wrong length or D w is not integral."""
        return _scaled(w, self.D) if len(w) == self.dim else None

    def weight(self, n: tuple[int, ...]) -> Weight:
        """The weight n / D of a box point n."""
        return Weight._of(tuple(map(self.values.__getitem__, n)))


def _frame(datum: RootDatum, box: WeightBox) -> _Frame:
    """The box's frame for datum, kept on the box object (frozen, so written
    through its __dict__) and rebuilt when the box is used with another
    datum object: it dies with the box."""
    frame = box.__dict__.get("_frame")
    if frame is None or frame.datum is not datum:
        frame = box.__dict__["_frame"] = _Frame(datum, box)
    return frame


@dataclass(frozen=True)
class LinkageGenerators:
    """The move set closing the family's linkage relation inside a box."""

    def neighbors(self, datum: RootDatum, n: tuple[int, ...], frame: _Frame):
        """The images inside the frame's box of the integral box point N = n.

        Only the coordinates a move changes are tested against the box, so
        n itself must lie in the box.  Each move shifts an integral weight
        by an integer vector, so its images stay on the anchor's lattice and
        only the bounds lo <= v <= hi are tested.
        """
        lo, hi = frame.lo, frame.hi
        for root, coroot, p in frame.reflections:
            for i, c in coroot:
                p += c * n[i]
            if not p:  # n lies on the reflection's wall
                yield n
                continue
            img = list(n)
            for i, a in root:
                v = n[i] - p * a
                if not lo[i] <= v <= hi[i]:
                    break
                img[i] = v
            else:
                yield tuple(img)
        D = frame.D
        for root, form, k in frame.lines:
            for i, f in form:
                k += f * n[i]
            if k:
                continue
            for d in (D, -D):  # lam - c a for c = 1, 2, ..., then lam + c a
                img = list(n)
                while True:  # until the first image leaving the box
                    for i, a in root:
                        v = img[i] - d * a
                        if not lo[i] <= v <= hi[i]:
                            break
                        img[i] = v
                    else:
                        yield tuple(img)
                        continue
                    break
        if datum.family == "p":
            d, img = 2 * D, list(n)
            for k, x in enumerate(n):
                for v in (x + d, x - d):
                    if lo[k] <= v <= hi[k]:
                        img[k] = v
                        yield tuple(img)
                img[k] = x


_GENERATORS = LinkageGenerators()


class _Component(Sequence):
    """A linkage component: a read-only sequence of its weights, sorted,
    over the same points as integer vectors N = D lam in `lattice`.

    A weight is built from the frame only when it is first read: comp[0]
    builds the first one, iteration or any other index builds all of them
    once.  `first`, when given, is the Weight of lattice[0].  A component
    equals any sequence of the same weights, from either side of ==.
    """

    __slots__ = ("lattice", "_frame", "_first", "_weights")

    def __init__(self, frame: _Frame, lattice: list[tuple[int, ...]],
                 first: Weight | None = None):
        self.lattice, self._frame, self._first, self._weights = lattice, frame, first, None

    def __len__(self) -> int:
        return len(self.lattice)

    def __getitem__(self, i):
        if i == 0 and self._weights is None:
            if self._first is None:
                self._first = self._frame.weight(self.lattice[0])
            return self._first
        if self._weights is None:
            self._weights = [self[0], *map(self._frame.weight, self.lattice[1:])]
        return self._weights[i]

    def __iter__(self):
        self[-1]  # builds every weight once
        return iter(self._weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"_Component({list(self)!r})"


def bfs_linkage_closure(datum: RootDatum, seed: Weight, box: WeightBox) -> Sequence[Weight]:
    """The connected component of seed under the linkage generators,
    restricted to the box, as a sorted read-only sequence of weights built
    on first read.  Refuses a box whose weights are not integral."""
    frame = _frame(datum, box)
    n = frame.lattice(seed)
    if n is None or not frame.contains(n):
        raise UnsupportedInputError("seed lies outside the box")
    if not frame.all_integral:
        raise UnsupportedInputError("linkage closures are computed for integral weights")
    levels = _closure(n, lambda x: _GENERATORS.neighbors(datum, x, frame))
    lattice = sorted(itertools.chain.from_iterable(levels))
    # a seed that is the least point (as every one-point seed is) stands
    # for itself: the caller's object
    return _Component(frame, lattice, seed if lattice[0] == n else None)


@dataclass
class PartitionReport:
    """partition_box outcome: components, labels, and the two defect lists."""

    box: WeightBox
    components: list[Sequence[Weight]]
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
                 "label": label.to_json(),
                 "representative": datum.format_weight(comp[0])}
                for comp, label in zip(self.components, self.component_labels)
            ],
            "soundness_failures": self.soundness_failures,
            "label_splits": self.label_splits,
            "sound": self.sound,
        }


def _box_labels(datum: RootDatum, box: WeightBox, cap: int = BOX_CAP):
    """The box's frame, a dict from each box point N (in points order) to
    its label id, and the box's distinct BlockLabels, indexed by id and
    each built once: points share an id exactly when their labels agree.
    Every family's labels are keyed by blocks._label on N + D shift.
    Refuses boxes above cap, and a box of a non-integral anchor once, as
    block_label refuses its first point (an empty box refuses nothing)."""
    box._check_cap(cap)
    frame = _frame(datum, box)
    D, family = frame.D, datum.family
    points = frame.points()
    if points and not frame.all_integral:
        block_label(datum, frame.weight(points[0]))  # refuses: no point is integral
    values = {}  # v -> v / D, built once per distinct label value

    def value(v: int) -> Fraction:
        q = values.get(v)
        if q is None:
            q = values[v] = Fraction(v, D)
        return q

    shifted = [range(axis.start + s, axis.stop + s, D)
               for axis, s in zip(frame.axes, frame.label_shift)]
    keyed = zip(points, map(functools.partial(_label, datum, D), itertools.product(*shifted)))
    ids, index, labels = {}, {}, []  # N -> id, label key -> id, id -> BlockLabel
    for n, key in keyed:
        i = index.get(key)
        if i is None:
            i = index[key] = len(labels)
            labels.append(BlockLabel(family, _payload(family, key, value)))
        ids[n] = i
    return frame, ids, labels


def block_members(datum: RootDatum, box: WeightBox, target: BlockLabel,
                  cap: int = BOX_CAP) -> list[Weight]:
    """The box's weights whose block label is target, sorted: the points
    carrying target's label id, if the box holds target at all."""
    frame, ids, labels = _box_labels(datum, box, cap)
    hit = next((i for i, label in enumerate(labels) if label == target), None)
    return [frame.weight(n) for n in sorted(n for n, i in ids.items() if i == hit)]


def partition_box(datum: RootDatum, box: WeightBox, enlarge: bool = True,
                  cap: int = BOX_CAP) -> PartitionReport:
    """Partition the box into linkage components and audit the labels.

    Reports (a) components carrying more than one closed-form label (a
    soundness failure) and (b) labels split across several components,
    annotated with whether one enlargement pass merges them.  Refuses boxes
    above cap points, and an enlargement pass whose box holds more.
    """
    frame, ids, labels = _box_labels(datum, box, cap)
    closed = set()  # the points of the components of more than one point
    components: list[_Component] = []
    comp_ids = []
    failures: list[dict] = []
    for n in ids:
        if n in closed:
            continue
        if all(m == n for m in _GENERATORS.neighbors(datum, n, frame)):
            # a seed no move leaves is its own component
            comp = _Component(frame, [n])
        else:
            comp = bfs_linkage_closure(datum, frame.weight(n), box)
            closed.update(comp.lattice)
            seen = {ids[m] for m in comp.lattice}
            if len(seen) > 1:
                failures.append({
                    "representative": datum.format_weight(comp[0]),
                    "labels": sorted(labels[i].json_str() for i in seen),
                })
        components.append(comp)
        comp_ids.append(ids[comp.lattice[0]])
    by_label: dict = {}
    for c, i in enumerate(comp_ids):
        by_label.setdefault(i, []).append(c)
    split_labels = sorted((labels[i].json_str(), comps)
                          for i, comps in by_label.items() if len(comps) > 1)
    if enlarge and split_labels:
        big = box.enlarged()
        big._check_cap(cap, "enlarged box")
    splits = []
    for text, comps in split_labels:
        entry = {"label": text,
                 "component_count": len(comps),
                 "merged_after_enlargement": None}
        if enlarge:
            reps = [components[c][0] for c in comps]
            reached = set(bfs_linkage_closure(datum, reps[0], big).lattice)
            lattice = _frame(datum, big).lattice
            entry["merged_after_enlargement"] = all(lattice(r) in reached for r in reps[1:])
        splits.append(entry)
    return PartitionReport(box, components, [labels[i] for i in comp_ids], failures, splits)


# -- KL cross-check ---------------------------------------------------------

_KL_LIMIT = 1 << 32  # bound on an accepted KL coefficient
CROSS_CHECK_CAP = 1152  # |W| above which kl_cross_check refuses

class _RPolynomials:
    """The group on the oracle's own int ids, with every nonzero R_{x,w}.

    Elements are numbered by (BFS level, images) from a BFS under left
    multiplication by the simple reflections; the level is the length.
    `rows[w]` maps each x with R_{x,w} != 0, exactly the Bruhat interval
    [e, w], to R_{x,w}(2^b).  For the first left descent s of w, v = sw,

        R_{x,w} = R_{sx,v}  if sx < x,  else  (q - 1) R_{x,v} + q R_{sx,v},

    over the x in [e, v] u s[e, v], so no Bruhat test is needed.  By this
    recursion |coefficients of R_{x,w}| sum to at most 3^(l(w) - l(x)); b
    leaves room for |W| such terms times a KL coefficient below _KL_LIMIT,
    so every coefficient the oracle forms is below 2^(b-1) and the base-2^b
    digits, balanced around 0, are exact (Kronecker substitution).
    """

    def __init__(self, W: FiniteWeylGroup):
        simple = W.reflections
        levels = [sorted(level, key=lambda w: w.images)
                  for level in _closure(W.identity, lambda x: [g.compose(x) for g in simple])]
        self.elements = [w for level in levels for w in level]
        self.length = L = [k for k, level in enumerate(levels) for _ in level]
        self.b = b = (len(L) * 3 ** L[-1] * _KL_LIMIT).bit_length() + 1
        ids = {w: i for i, w in enumerate(self.elements)}
        lmul = [[ids[g.compose(w)] for w in self.elements] for g in simple]
        self.rows: list[dict[int, int]] = [{0: 1}]
        for w in range(1, len(L)):
            s = next(row for row in lmul if L[row[w]] < L[w])
            prev, row = self.rows[s[w]], {}
            for x in [*prev, *(s[y] for y in prev)]:
                a, c = prev.get(x, 0), prev.get(s[x], 0)
                r = c if L[s[x]] < L[x] else ((a + c) << b) - a
                if r:
                    row[x] = r
            self.rows.append(row)

    def digits(self, v: int, count: int) -> list[int]:
        """The lowest `count` coefficients of the polynomial held as v."""
        out = []
        for _ in range(count):
            out.append((v + (1 << self.b - 1)) % (1 << self.b) - (1 << self.b - 1))
            v = (v - out[-1]) >> self.b
        return out


def kl_via_inversion(W: FiniteWeylGroup) -> dict:
    """All P_{x,w} via the inversion identity, keyed by image pairs; shares
    neither the recursion nor the element index of the KL engine.

    For each w the P_{x,w} are found in decreasing length of x: once
    P_{x,w} is known, R_{y,x} P_{x,w} is added to the sum of every y < x,
    so each sum runs over [y, w] only.
    """
    from .kl import KLPolynomial
    rp = _RPolynomials(W)
    L, elements, b = rp.length, rp.elements, rp.b
    below = [[(y, r) for y, r in row.items() if y != x] for x, row in enumerate(rp.rows)]
    table: dict = {}
    for w in range(len(elements)):
        acc = dict.fromkeys(rp.rows[w], 0)
        for x in sorted(acc, key=lambda x: (-L[x], x)):
            n = L[w] - L[x]
            # the low digits of the sum are -P_{x,w}
            coeffs = tuple(-d for d in rp.digits(acc[x], (n + 1) // 2)) if x != w else (1,)
            # the identity q^n P(1/q) - P(q) = sum must balance exactly
            if acc[x] != sum((c << b * (n - i)) - (c << b * i) for i, c in enumerate(coeffs)):
                raise SuperlinkError("R-polynomial inversion failed to balance")
            if not all(0 <= c < _KL_LIMIT for c in coeffs):
                raise SuperlinkError(f"KL coefficient out of range: {coeffs}")
            table[(elements[x].images, elements[w].images)] = coeffs
            p = sum(c << b * k for k, c in enumerate(coeffs))
            for y, r in below[x]:
                acc[y] += r * p
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


def kl_cross_check(W: FiniteWeylGroup) -> CrossCheckReport:
    """Diff the KL recursion against the R-polynomial inversion on all pairs."""
    from .kl import KLPolynomial, kl_polynomial
    if W.order > CROSS_CHECK_CAP:
        raise CapExceededError(f"|W| = {W.order} exceeds cross-check cap {CROSS_CHECK_CAP}")
    inverted = kl_via_inversion(W)
    # the oracle's own elements, in its order: each w's first key is (w, w)
    elements = [WeylElement(w) for x, w in inverted if x == w]
    zero = KLPolynomial.of(())
    diffs = []
    for x in elements:
        for w in elements:
            direct = kl_polynomial(W, x, w)
            other = inverted.get((x.images, w.images), zero)
            if direct != other:
                diffs.append((x.to_cycles(), w.to_cycles(),
                              direct.coeffs, other.coeffs))
    return CrossCheckReport(W.order, len(elements) ** 2, diffs)


def verma_series_rank_small(datum: RootDatum, lam: Weight) -> MultTable:
    """Ground-truth composition multiplicities over the dot orbit of lam.

    Rank <= 2 reductive data only; see verma_oracle for the machinery.
    """
    from .kl import MultTable
    from .verma_oracle import verma_multiplicities
    entries = verma_multiplicities(datum, lam)
    return MultTable(dict(entries), provenance="character-oracle")
