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

Both the moves and the integrality test run on integer coordinates
N = D lam over one common denominator D per (datum, box) (see _Frame).

The KL cross-check recomputes every polynomial through the R-polynomial
inversion identity q^l P(1/q) - P(q) = sum_z R_{x,z} P_{z,w} and diffs the
two tables.  It shares neither the recursion nor the element index of the
KL engine: it numbers the group itself by a BFS over the reflections, and
reads Bruhat order off R_{x,w} != 0 (Bjorner-Brenti, Combinatorics of
Coxeter Groups, Ch. 5).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .blocks import BlockLabel, _LATTICE_FAMILIES, _label, _label_shift, block_label
from .errors import CapExceededError, SuperlinkError, UnsupportedInputError
from .kl import FiniteWeylGroup, KLPolynomial, MultTable, kl_polynomial
from .root_data import RootDatum, _coroots
from .verma_oracle import verma_multiplicities
from .weights import Weight, format_rational
from .weyl import WeylElement, _closure

BOX_CAP = 10 ** 6


@dataclass(frozen=True)
class WeightBox:
    """An axis-aligned lattice box: anchor + step Z^dim, clipped to [lo, hi]."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]
    step: Fraction = Fraction(1)
    anchor: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.step <= 0:
            raise UnsupportedInputError(
                f"box step must be positive, got {format_rational(self.step)}")
        # hashed once: every BFS closure looks the box up in the frame cache
        object.__setattr__(self, "_hash", hash((self.lo, self.hi, self.step, self.anchor)))

    def __hash__(self) -> int:
        return self._hash

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

    def _check_cap(self, cap: int = BOX_CAP, name: str = "box") -> None:
        """Raise CapExceededError when the box holds more than cap points."""
        count = self.count()
        if count > cap:
            raise CapExceededError(f"{name} holds {count} points, cap is {cap}")

    def points(self):
        if any(l > h for l, h in zip(self.lo, self.hi)):
            return
        self._check_cap()
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


def _integers(pairs) -> tuple[tuple[int, int], ...]:
    """The pairs (i, c) with c != 0 and c an int; refuses a fractional c."""
    pairs = [(i, c) for i, c in pairs if c]
    if any(c.denominator != 1 for _, c in pairs):
        raise UnsupportedInputError("the box oracle needs integer roots and coroots")
    return tuple((i, c.numerator) for i, c in pairs)


@lru_cache(maxsize=16)
def _root_vectors(datum: RootDatum) -> tuple[tuple, tuple, tuple]:
    """The datum's integer vectors, which no box changes: (root, coroot) per
    simple even root, (a, f) per isotropic line {a, -a} with <mu, a> =
    sum_i f_i mu_i, and every even positive coroot.  The coroots are those
    of root_data's table, checked to be integral."""
    coroots = tuple(map(_integers, _coroots(datum)))
    positive = datum.even_positive
    reflections = tuple((_integers(enumerate(r.weight)), coroots[positive.index(r)])
                        for r in datum.simple_even)
    lines = []
    seen = set()
    for iso in datum.isotropic_roots:
        a = iso.weight
        key = min(a.coords, (-a).coords)
        if key in seen:
            continue
        seen.add(key)
        root = _integers(enumerate(a))
        lines.append((root, tuple((i, int(datum.form_signature[i]) * ai) for i, ai in root)))
    return reflections, tuple(lines), coroots


class _Frame:
    """A box's lattice in integer coordinates N = D lam.

    D is the least common denominator of the box's bounds, step and anchor
    and of rho0 and rho, so box points and rho-shifts are integer vectors.
    Roots and coroots are integer vectors in every supported family (this is
    checked), so each linkage move is integer arithmetic on N, and lam is
    integral exactly when D divides sum_i c_i N_i for every even positive
    coroot c; all_integral proves it for every point of the box at once
    where the anchor and step allow.  Ordering N orders lam, since D > 0.
    Block labels of the super families are read off N + D shift as well
    (see blocks._label).
    """

    def __init__(self, datum: RootDatum, box: WeightBox):
        anchor = box._anchor()
        rho0, rho = datum.rho0.coords, datum.rho.coords
        D = math.lcm(*(c.denominator for c in
                       (*box.lo, *box.hi, box.step, *anchor, *rho0, *rho)))
        self.D, self.dim = D, datum.dim
        self.lo = tuple(int(c * D) for c in box.lo)
        self.hi = tuple(int(c * D) for c in box.hi)
        self.anchor = tuple(int(c * D) for c in anchor)
        self.step = step = int(box.step * D)
        # each axis starts at a + step * ceil((lo - a) / step)
        self.axes = [range(a - step * ((a - lo) // step), hi + 1, step)
                     for a, lo, hi in zip(self.anchor, self.lo, self.hi)]
        # v -> v / D for every axis value; label payloads add theirs
        self.values = {v: Fraction(v, D) for axis in self.axes for v in axis}
        self.label_shift = tuple(int(c * D) for c in _label_shift(datum))
        reflections, lines, self.coroots = _root_vectors(datum)
        # every point anchor + k step is integral when each even coroot c has
        # sum_i c_i anchor_i = 0 and c_i step = 0 for every i (mod D)
        self.all_integral = all(
            sum(c * self.anchor[i] for i, c in coroot) % D == 0
            and all(c * step % D == 0 for _, c in coroot) for coroot in self.coroots)
        # lam -> s(lam + shift) - shift is N -> N - p a, p = k + sum_i c_i N_i
        shift = [int(c * D) for c in (rho if datum.family == "osp32" else rho0)]
        self.reflections = [(root, c, sum(ci * shift[i] for i, ci in c))
                            for root, c in reflections]
        # per isotropic line, <lam + rho, a> = 0 reads k + sum_i f_i N_i = 0
        rho_n = [int(c * D) for c in rho]
        self.lines = [(root, form, sum(f * rho_n[i] for i, f in form)) for root, form in lines]

    def points(self) -> list[tuple[int, ...]]:
        """The box's points N, in WeightBox.points order."""
        return list(itertools.product(*self.axes))

    def contains(self, n: tuple[int, ...]) -> bool:
        step = self.step
        for lo, hi, a, v in zip(self.lo, self.hi, self.anchor, n):
            if not lo <= v <= hi or (v - a) % step:
                return False
        return True

    def integral(self, n: tuple[int, ...]) -> bool:
        D = self.D
        return all(sum(c * n[i] for i, c in coroot) % D == 0 for coroot in self.coroots)

    def lattice(self, w: Weight) -> tuple[int, ...] | None:
        """D w, or None when w has the wrong length or D w is not integral."""
        if len(w) != self.dim:
            return None
        D, n = self.D, []
        for c in w.coords:
            k, r = divmod(D, c.denominator)
            if r:
                return None
            n.append(c.numerator * k)
        return tuple(n)

    def value(self, v: int) -> Fraction:
        """The rational v / D."""
        values = self.values
        return values[v] if v in values else values.setdefault(v, Fraction(v, self.D))

    def weight(self, n: tuple[int, ...]) -> Weight:
        """The weight n / D of a box point n."""
        return Weight._of(tuple(map(self.values.__getitem__, n)))


@lru_cache(maxsize=16)
def _frame(datum: RootDatum, box: WeightBox) -> _Frame:
    return _Frame(datum, box)


@dataclass(frozen=True)
class LinkageGenerators:
    """The move set closing the family's linkage relation inside a box."""

    reflection_moves: bool = True
    isotropic_shifts: bool = True
    p_shifts: bool = True

    @staticmethod
    def none() -> "LinkageGenerators":
        return LinkageGenerators(False, False, False)

    def neighbors(self, datum: RootDatum, n: tuple[int, ...], frame: _Frame):
        """The images inside the frame's box of the box point N = n.

        Only the coordinates a move changes are tested against the box, so
        n itself must lie in the box.  A coordinate value v fits the box when
        lo <= v <= hi and v lies on the anchor's lattice.
        """
        lo, hi, anchor, step = frame.lo, frame.hi, frame.anchor, frame.step
        if self.reflection_moves:
            for root, coroot, p in frame.reflections:
                for i, c in coroot:
                    p += c * n[i]
                img = list(n)
                for i, a in root:
                    v = n[i] - p * a
                    if not lo[i] <= v <= hi[i] or (v - anchor[i]) % step:
                        break
                    img[i] = v
                else:
                    yield tuple(img)
        if self.isotropic_shifts:
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
                            if not lo[i] <= v <= hi[i] or (v - anchor[i]) % step:
                                break
                            img[i] = v
                        else:
                            yield tuple(img)
                            continue
                        break
        if self.p_shifts and datum.family == "p":
            d = 2 * frame.D
            for k, x in enumerate(n):
                for v in (x + d, x - d):
                    if lo[k] <= v <= hi[k] and not (v - anchor[k]) % step:
                        yield n[:k] + (v,) + n[k + 1:]


def default_generators(datum: RootDatum) -> LinkageGenerators:
    return LinkageGenerators()


class _Component(list):
    """A linkage component: its weights, sorted, with the same points as
    integer vectors N = D lam in `lattice`."""

    lattice: list[tuple[int, ...]]


def bfs_linkage_closure(datum: RootDatum, seed: Weight, box: WeightBox,
                        gens: LinkageGenerators) -> list[Weight]:
    """The connected component of seed under gens, restricted to the box."""
    frame = _frame(datum, box)
    n = frame.lattice(seed)
    if n is None or not frame.contains(n):
        raise UnsupportedInputError("seed lies outside the box")
    levels = _closure(n, lambda x: gens.neighbors(datum, x, frame))
    lattice = sorted(itertools.chain.from_iterable(levels))
    comp = _Component(map(frame.weight, lattice))
    comp.lattice = lattice
    return comp


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
                 "label": label.to_json(),
                 "representative": datum.format_weight(comp[0])}
                for comp, label in zip(self.components, self.component_labels)
            ],
            "soundness_failures": self.soundness_failures,
            "label_splits": self.label_splits,
            "sound": self.sound,
        }


def _box_labels(datum: RootDatum, box: WeightBox, cap: int = BOX_CAP):
    """The box's frame, the label key of each box point N (in points order)
    and the BlockLabel of each key, built once per distinct label.  Refuses
    boxes above cap, and the first point block_label refuses, as it does."""
    box._check_cap(cap)
    frame = _frame(datum, box)
    D, shift = frame.D, frame.label_shift
    on_lattice = datum.family in _LATTICE_FAMILIES
    proven = on_lattice and frame.all_integral
    keys = {}  # N -> its label's key
    labels = {}  # key -> BlockLabel, built once per distinct label
    for n in frame.points():
        # block_label's own integrality check, and its refusals, only where
        # the frame cannot prove the point integral
        if proven or on_lattice and frame.integral(n):
            mu = [a + b for a, b in zip(n, shift)]
            key = _label(datum, D, mu, int)
            if key not in labels:
                labels[key] = BlockLabel(datum.family, _label(datum, D, mu, frame.value))
        else:
            key = block_label(datum, frame.weight(n))  # the label is its own key
            labels.setdefault(key, key)
        keys[n] = key
    return frame, keys, labels


def block_members(datum: RootDatum, box: WeightBox, target: BlockLabel,
                  cap: int = BOX_CAP) -> list[Weight]:
    """The box's weights whose block label is target, sorted."""
    frame, keys, labels = _box_labels(datum, box, cap)
    hits = {key for key, label in labels.items() if label == target}
    return [frame.weight(n) for n in sorted(n for n, key in keys.items() if key in hits)]


def partition_box(datum: RootDatum, box: WeightBox, gens: LinkageGenerators,
                  enlarge: bool = True, cap: int = BOX_CAP) -> PartitionReport:
    """Partition the box into linkage components and audit the labels.

    Reports (a) components carrying more than one closed-form label (a
    soundness failure) and (b) labels split across several components,
    annotated with whether one enlargement pass merges them.  Refuses boxes
    above cap points, and an enlargement pass whose box holds more.
    """
    frame, keys, labels = _box_labels(datum, box, cap)
    unvisited = set(keys)
    components: list[list[Weight]] = []
    comp_keys = []
    failures: list[dict] = []
    for n in keys:
        if n not in unvisited:
            continue
        comp = bfs_linkage_closure(datum, frame.weight(n), box, gens)
        unvisited.difference_update(comp.lattice)
        seen = {keys[m] for m in comp.lattice}
        if len(seen) > 1:
            failures.append({
                "representative": datum.format_weight(comp[0]),
                "labels": sorted(labels[k].json_str() for k in seen),
            })
        components.append(comp)
        comp_keys.append(keys[comp.lattice[0]])
    by_label: dict = {}
    for i, key in enumerate(comp_keys):
        by_label.setdefault(key, []).append(i)
    split_labels = sorted((labels[key].json_str(), comps)
                          for key, comps in by_label.items() if len(comps) > 1)
    if enlarge and split_labels:
        big = box.enlarged()
        big._check_cap(cap, "enlarged box")
    splits = []
    for text, comps in split_labels:
        entry = {"label": text,
                 "component_count": len(comps),
                 "merged_after_enlargement": None}
        if enlarge:
            reps = [components[i][0] for i in comps]
            reached = set(bfs_linkage_closure(datum, reps[0], big, gens))
            entry["merged_after_enlargement"] = all(r in reached for r in reps[1:])
        splits.append(entry)
    return PartitionReport(box, components, [labels[k] for k in comp_keys], failures, splits)


# -- KL cross-check ---------------------------------------------------------

_KL_LIMIT = 1 << 32  # bound on an accepted KL coefficient

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
        gens = W.reflections
        levels = [sorted(level, key=lambda w: w.images)
                  for level in _closure(W.identity, lambda x: [g.compose(x) for g in gens])]
        self.elements = [w for level in levels for w in level]
        self.length = L = [k for k, level in enumerate(levels) for _ in level]
        self.b = b = (len(L) * 3 ** L[-1] * _KL_LIMIT).bit_length() + 1
        ids = {w: i for i, w in enumerate(self.elements)}
        lmul = [[ids[g.compose(w)] for w in self.elements] for g in gens]
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


def kl_cross_check(W: FiniteWeylGroup, cap: int = 1152) -> CrossCheckReport:
    """Diff the KL recursion against the R-polynomial inversion on all pairs."""
    if W.order > cap:
        raise CapExceededError(f"|W| = {W.order} exceeds cross-check cap {cap}")
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
    entries = verma_multiplicities(datum, lam)
    return MultTable(dict(entries), provenance="character-oracle")
