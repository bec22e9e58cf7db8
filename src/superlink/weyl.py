"""Weyl group elements, reflections, the dot action and orbit machinery.

Elements are signed permutations of the datum's coordinates, constrained by
the family's block structure: type A blocks are permuted without signs,
type C blocks allow sign changes.  The image table ``images[i] = +-(j+1)``
means the i-th basis vector maps to +- the j-th.

Conventions used throughout (all exact):

* reflection:     s_a(x) = x - <x, a^vee> a, for even non-isotropic a;
* dot action:     w . x  = w(x + rho0) - rho0;
* dominant:       <x + rho0, a^vee> not in Z_{<0} for all even positive a;
* anti-dominant:  <x + rho0, a^vee> not in Z_{>0}, optionally only over the
  positive roots of a parabolic subgroup given by a subset of Pi_0.

The canonical anti-dominant representative of an integral dot orbit sorts
the (x + rho0)-coordinates ascending inside each type A window and maps
type C window coordinates to minus their absolute value before sorting;
ties break by original position, which fixes a deterministic witness.

Dot orbits and anti-dominance run on the integer shifted coordinates
N = D (x + rho0), D the least common denominator of x and rho0.  A simple
reflection permutes N with signs, so the orbit BFS applies it to the doubled
point (N, -N) as one cached itemgetter and does no arithmetic, and
anti-dominance pairs N with root_data's coroot table.  Points convert back
to weights once, at the end.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import CapExceededError, SuperlinkError, UnsupportedInputError
from .root_data import EVEN, Root, RootDatum, _coroots, is_integral, pairing_coroot
from .weights import Weight

SUBGROUP_CAP = 10080


@dataclass(frozen=True)
class WeylElement:
    """A signed permutation; images[i] = +-(j+1) sends basis i to +- basis j."""

    images: tuple[int, ...]

    def __post_init__(self):
        seen = sorted(abs(v) for v in self.images)
        if seen != list(range(1, len(self.images) + 1)) or 0 in self.images:
            raise SuperlinkError(f"not a signed permutation: {self.images}")

    @staticmethod
    def identity(dim: int) -> "WeylElement":
        return WeylElement(tuple(range(1, dim + 1)))

    @property
    def dim(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.dim + 1))

    def apply(self, w: Weight) -> Weight:
        coords = [Fraction(0)] * self.dim
        for i, v in enumerate(self.images):
            j = abs(v) - 1
            coords[j] = w[i] if v > 0 else -w[i]
        return Weight(coords)

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self after other: (self * other)(x) = self(other(x))."""
        images = []
        for v in other.images:
            u = self.images[abs(v) - 1]
            images.append(u if v > 0 else -u)
        return WeylElement(tuple(images))

    def inverse(self) -> "WeylElement":
        images = [0] * self.dim
        for i, v in enumerate(self.images):
            images[abs(v) - 1] = (i + 1) if v > 0 else -(i + 1)
        return WeylElement(tuple(images))

    def to_cycles(self) -> str:
        """Serialize in signed-cycle notation, e.g. `(1 2)` or `(1 -1)`.

        Within a cycle (a_1 ... a_k), basis |a_t| maps to sign(a_{t+1})
        times basis |a_{t+1}|, wrapping to a_1.  A pure sign flip on i
        prints as `(i -i)`.  The identity prints as `e`.
        """
        seen = [False] * self.dim
        parts = []
        for start in range(self.dim):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            j = abs(self.images[start]) - 1
            while j != start:
                orbit.append(j)
                seen[j] = True
                j = abs(self.images[j]) - 1
            if len(orbit) == 1:
                if self.images[start] < 0:
                    parts.append(f"({start + 1} -{start + 1})")
                continue
            entries = []
            closing_sign = 1 if self.images[orbit[-1]] > 0 else -1
            entries.append(closing_sign * (orbit[0] + 1))
            for t in range(1, len(orbit)):
                sign = 1 if self.images[orbit[t - 1]] > 0 else -1
                entries.append(sign * (orbit[t] + 1))
            parts.append("(" + " ".join(str(v) for v in entries) + ")")
        return "".join(parts) if parts else "e"

    @staticmethod
    def from_cycles(text: str, dim: int) -> "WeylElement":
        """Parse the `to_cycles` notation."""
        text = text.strip()
        if text in ("", "e", "()", "1"):
            return WeylElement.identity(dim)
        images = list(range(1, dim + 1))
        touched: set[int] = set()
        for body in re.findall(r"\(([^()]*)\)", text):
            entries = [int(tok) for tok in body.replace(",", " ").split()]
            if not entries:
                continue
            idxs = [abs(v) for v in entries]
            if any(i < 1 or i > dim for i in idxs):
                raise SuperlinkError(f"cycle index out of range 1..{dim}: ({body})")
            if len(set(idxs)) == 1 and len(entries) == 2:
                if entries[0] != -entries[1]:
                    raise SuperlinkError(f"bad sign-flip cycle ({body})")
                i = idxs[0]
                if i in touched:
                    raise SuperlinkError(f"index {i} repeated across cycles")
                touched.add(i)
                images[i - 1] = -i
                continue
            if len(set(idxs)) != len(idxs):
                raise SuperlinkError(f"repeated index inside cycle ({body})")
            if touched & set(idxs):
                raise SuperlinkError(f"index repeated across cycles: ({body})")
            touched |= set(idxs)
            for t, entry in enumerate(entries):
                nxt = entries[(t + 1) % len(entries)]
                sign = 1 if nxt > 0 else -1
                images[abs(entry) - 1] = sign * abs(nxt)
        return WeylElement(tuple(images))

    def __repr__(self):
        return f"WeylElement({self.to_cycles()})"


def validate_element(datum: RootDatum, w: WeylElement) -> None:
    """Check w respects the datum's block structure (A: no signs, no mixing)."""
    if w.dim != datum.dim:
        raise UnsupportedInputError("element dimension does not match the datum")
    block_of = {}
    for b, (kind, start, size) in enumerate(datum.blocks):
        for i in range(start, start + size):
            block_of[i] = (b, kind)
    for i, v in enumerate(w.images):
        j = abs(v) - 1
        if block_of[i][0] != block_of[j][0]:
            raise UnsupportedInputError("element mixes coordinates across blocks")
        if v < 0 and block_of[i][1] != "C":
            raise UnsupportedInputError("sign change outside a type C block")


def _require_even(alpha: Root) -> None:
    if alpha.parity != EVEN or alpha.isotropic:
        raise UnsupportedInputError("reflections exist only for even non-isotropic roots")


def reflect(datum: RootDatum, alpha: Root, lam: Weight) -> Weight:
    """s_alpha(lam) = lam - <lam, alpha^vee> alpha."""
    _require_even(alpha)
    return lam - alpha.weight.scale(pairing_coroot(datum, lam, alpha))


def reflection_element(datum: RootDatum, alpha: Root) -> WeylElement:
    """The reflection s_alpha as a signed permutation."""
    _require_even(alpha)
    images = []
    for i in range(datum.dim):
        image = reflect(datum, alpha, Weight([1 if k == i else 0 for k in range(datum.dim)]))
        nonzero = [(j, c) for j, c in enumerate(image) if c != 0]
        if len(nonzero) != 1 or abs(nonzero[0][1]) != 1:
            raise SuperlinkError(f"reflection at {alpha} is not a signed permutation")
        j, c = nonzero[0]
        images.append((j + 1) if c > 0 else -(j + 1))
    return WeylElement(tuple(images))


def dot(datum: RootDatum, w: WeylElement, lam: Weight) -> Weight:
    """The rho0-shifted action w . lam = w(lam + rho0) - rho0."""
    datum.check_dim(lam)
    return w.apply(lam + datum.rho0) - datum.rho0


def _resolve_sub(datum: RootDatum, sub) -> tuple[Root, ...]:
    if sub is None:
        return datum.simple_even
    sub = tuple(sub)
    simple = datum.simple_even  # a tuple: membership tries identity first
    for r in sub:
        if r not in simple:
            raise UnsupportedInputError("parabolic subgroups are generated by subsets of Pi_0")
    return sub


@lru_cache(maxsize=None)
def _simple_expansions(datum: RootDatum) -> dict[Weight, tuple[Fraction, ...]]:
    """Expand every even positive root over Pi_0 (exact Gaussian elimination)."""
    simples = [r.weight for r in datum.simple_even]
    k = len(simples)
    out: dict[Weight, tuple[Fraction, ...]] = {}
    for root in datum.even_positive:
        # solve sum_j x_j simples[j] = root
        rows = [[simples[j][i] for j in range(k)] + [root.weight[i]]
                for i in range(datum.dim)]
        piv_cols: list[int] = []
        r = 0
        for c in range(k):
            piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            rows[r] = [v / rows[r][c] for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            piv_cols.append(c)
            r += 1
        if any(all(v == 0 for v in row[:-1]) and row[-1] != 0 for row in rows):
            continue  # root outside the span of Pi_0 (cannot happen for these families)
        coeffs = [Fraction(0)] * k
        for idx, c in enumerate(piv_cols):
            coeffs[c] = rows[idx][-1]
        out[root.weight] = tuple(coeffs)
    return out


def parabolic_positive_roots(datum: RootDatum, sub=None) -> tuple[Root, ...]:
    """Even positive roots lying in the span of the given simple subset."""
    sub = _resolve_sub(datum, sub)
    if len(sub) == len(datum.simple_even):
        return datum.even_positive
    chosen = {datum.simple_even.index(r) for r in sub}
    expans = _simple_expansions(datum)
    out = []
    for root in datum.even_positive:
        coeffs = expans[root.weight]
        if all(c == 0 or j in chosen for j, c in enumerate(coeffs)):
            out.append(root)
    return tuple(out)


def is_dominant(datum: RootDatum, lam: Weight) -> bool:
    shifted = lam + datum.rho0
    for alpha in datum.even_positive:
        t = pairing_coroot(datum, shifted, alpha)
        if t.denominator == 1 and t < 0:
            return False
    return True


def _shifted(datum: RootDatum, lam: Weight) -> tuple[int, tuple[int, ...]]:
    """(D, N): D the least common denominator of lam and rho0, and the
    integer shifted coordinates N = D (lam + rho0)."""
    if len(lam) != datum.dim:
        raise ValueError("weight dimensions differ")
    rho0 = datum.rho0.coords
    D = math.lcm(*(c.denominator for c in lam.coords), *(c.denominator for c in rho0))
    return D, tuple(a.numerator * (D // a.denominator) + r.numerator * (D // r.denominator)
                    for a, r in zip(lam.coords, rho0))


def _unshifted(datum: RootDatum, D: int, points) -> list[Weight]:
    """The weights N / D - rho0 of shifted points N (entries past dim are
    ignored)."""
    rho0 = [c.numerator * (D // c.denominator) for c in datum.rho0.coords]
    return [Weight._of(tuple(Fraction(v - r, D) for v, r in zip(n, rho0))) for n in points]


@lru_cache(maxsize=None)
def _parabolic_coroots(datum: RootDatum, chosen: tuple[int, ...]) -> tuple:
    """root_data's coroots of the parabolic positive roots of the simple
    even roots with these indices."""
    table = _coroots(datum)
    sub = tuple(datum.simple_even[j] for j in chosen)
    return tuple(table[datum.even_positive.index(a)]
                 for a in parabolic_positive_roots(datum, sub))


def _antidominant_at(coroots, D: int, n) -> bool:
    """True iff no pairing <N / D, a^vee> over these coroots is a positive
    integer, for shifted coordinates N = n[:dim]."""
    for coroot in coroots:
        t = 0
        for i, c in coroot:
            t += c * n[i]
        if t > 0 and not t % D:
            return False
    return True


def is_antidominant(datum: RootDatum, lam: Weight, sub=None) -> bool:
    D, n = _shifted(datum, lam)
    chosen = tuple(map(datum.simple_even.index, _resolve_sub(datum, sub)))
    return _antidominant_at(_parabolic_coroots(datum, chosen), D, n)


def _runs(datum: RootDatum, sub: Sequence[Root]) -> list[tuple[str, list[int]]]:
    """Connected components of `sub`, as (kind, coordinate window) pairs.

    A component is type C exactly when it contains a one-coordinate root
    (2d_n, e, 2e_k); otherwise it is a type A chain.
    """
    supports = [tuple(i for i, c in enumerate(r.weight) if c != 0) for r in sub]
    n = len(sub)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if set(supports[i]) & set(supports[j]):
                parent[find(i)] = find(j)
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    out = []
    for members in comps.values():
        coords = sorted({c for i in members for c in supports[i]})
        kind = "C" if any(len(supports[i]) == 1 for i in members) else "A"
        out.append((kind, coords))
    out.sort(key=lambda kc: kc[1][0])
    return out


def antidominant_rep(datum: RootDatum, lam: Weight, sub=None) -> tuple[Weight, WeylElement]:
    """The unique sub-anti-dominant weight in the sub dot-orbit, plus a witness.

    Requires an integral weight; the representative is then unique and the
    witness w satisfies w . lam = rep.
    """
    datum.check_dim(lam)
    if not is_integral(datum, lam):
        raise UnsupportedInputError("anti-dominant representatives need an integral weight")
    sub = _resolve_sub(datum, sub)
    mu = lam + datum.rho0
    images = list(range(1, datum.dim + 1))
    for kind, coords in _runs(datum, sub):
        if kind == "A":
            ranked = sorted(coords, key=lambda i: (mu[i], i))
            for slot, src in zip(coords, ranked):
                images[src] = slot + 1
        else:
            ranked = sorted(coords, key=lambda i: (-abs(mu[i]), i))
            for slot, src in zip(coords, ranked):
                sign = -1 if mu[src] > 0 else 1
                images[src] = sign * (slot + 1)
    w = WeylElement(tuple(images))
    rep = w.apply(mu) - datum.rho0
    return rep, w


def stabilizer_roots(datum: RootDatum, lam: Weight) -> tuple[Root, ...]:
    """Even positive roots whose reflections dot-fix the integral weight."""
    if not is_integral(datum, lam):
        raise UnsupportedInputError("stabilizer roots are computed for integral weights")
    shifted = lam + datum.rho0
    return tuple(a for a in datum.even_positive
                 if pairing_coroot(datum, shifted, a) == 0)


@lru_cache(maxsize=None)
def _positive_weight_set(datum: RootDatum) -> frozenset[Weight]:
    return frozenset(r.weight for r in datum.even_positive)


def length(datum: RootDatum, w: WeylElement, sub=None) -> int:
    """Coxeter length: inversions among the (parabolic) positive roots."""
    pos = _positive_weight_set(datum)
    count = 0
    for alpha in parabolic_positive_roots(datum, sub):
        if w.apply(alpha.weight) not in pos:
            count += 1
    return count


def longest_element(datum: RootDatum, sub=None) -> WeylElement:
    """The longest element of the parabolic subgroup generated by `sub`."""
    sub = _resolve_sub(datum, sub)
    pos = _positive_weight_set(datum)
    w = WeylElement.identity(datum.dim)
    refs = {r: reflection_element(datum, r) for r in sub}
    while True:
        for alpha in sub:
            if w.apply(alpha.weight) in pos:
                w = w.compose(refs[alpha])
                break
        else:
            return w


def reduced_word(datum: RootDatum, w: WeylElement, sub=None) -> list[Root]:
    """A reduced word for w, as a list of simple roots (left-to-right product)."""
    sub = _resolve_sub(datum, sub)
    pos = _positive_weight_set(datum)
    refs = {r: reflection_element(datum, r) for r in sub}
    word: list[Root] = []
    current = w
    guard = length(datum, w) + 1
    while not current.is_identity():
        inv = current.inverse()
        for alpha in sub:
            if inv.apply(alpha.weight) not in pos:  # left descent
                word.append(alpha)
                current = refs[alpha].compose(current)
                break
        else:
            raise UnsupportedInputError("element is not in the given parabolic subgroup")
        guard -= 1
        if guard < 0:
            raise SuperlinkError("reduced word search failed to terminate")
    return word


def _closure(seed, moves, cap=None) -> list[list]:
    """The BFS levels of seed's closure under moves.

    levels[k] lists, in discovery order, the points first reached after k
    moves; moves(x) yields the neighbours of x.  Reaching a point beyond
    the first cap raises CapExceededError.
    """
    seen = {seed}
    levels = [[seed]]
    while True:
        nxt = []
        for x in levels[-1]:
            for y in moves(x):
                if y not in seen:
                    if cap is not None and len(seen) >= cap:
                        raise CapExceededError(f"closure exceeded cap {cap}")
                    seen.add(y)
                    nxt.append(y)
        if not nxt:
            return levels
        levels.append(nxt)


@lru_cache(maxsize=None)
def _reflection_moves(datum: RootDatum) -> tuple[itemgetter, ...]:
    """Per simple even root, its reflection on doubled points (N, -N): an
    itemgetter taking the doubled point of N to that of s_alpha(N)."""
    dim = datum.dim
    moves = []
    for alpha in datum.simple_even:
        # s_alpha(N)_j = +-N_i for images[i] = +-(j+1); -N_i sits at i + dim
        src = [0] * dim
        for i, v in enumerate(reflection_element(datum, alpha).images):
            src[abs(v) - 1] = i if v > 0 else i + dim
        moves.append(itemgetter(*src, *((k + dim) % (2 * dim) for k in src)))
    return tuple(moves)


def _orbit_shifted(datum: RootDatum, lam: Weight, sub: tuple[Root, ...]) -> tuple[int, Iterable]:
    """(D, points): the sub dot orbit of lam as doubled shifted points
    (N, -N), N = D (lam + rho0), for a resolved sub; the BFS moves integer
    entries and does no arithmetic."""
    D, n = _shifted(datum, lam)
    moves = _reflection_moves(datum)
    gens = [moves[datum.simple_even.index(alpha)] for alpha in sub]
    levels = _closure(n + tuple(-v for v in n), lambda x: [g(x) for g in gens])
    return D, chain.from_iterable(levels)


def orbit_dot(datum: RootDatum, lam: Weight, sub=None) -> frozenset[Weight]:
    """The dot orbit of lam under the parabolic subgroup (BFS closure)."""
    sub = _resolve_sub(datum, sub)
    if not sub:  # the trivial group
        return frozenset({lam})
    D, points = _orbit_shifted(datum, lam, sub)
    return frozenset(_unshifted(datum, D, points))


def _antidominant_points(datum: RootDatum, lam: Weight, sub) -> list[Weight]:
    """The sub-anti-dominant weights of lam's sub dot orbit, sorted."""
    sub = _resolve_sub(datum, sub)
    D, points = _orbit_shifted(datum, lam, sub)
    coroots = _parabolic_coroots(datum, tuple(map(datum.simple_even.index, sub)))
    return sorted(_unshifted(datum, D, (x for x in points if _antidominant_at(coroots, D, x))))


def enumerate_subgroup(datum: RootDatum, generators: Iterable[Root],
                       cap: int = SUBGROUP_CAP) -> list[WeylElement]:
    """All elements of the subgroup generated by the given reflections."""
    gens = [reflection_element(datum, r) for r in generators]
    levels = _closure(WeylElement.identity(datum.dim),
                      lambda w: (g.compose(w) for g in gens), cap)
    return sorted(chain.from_iterable(levels), key=lambda w: w.images)


def weyl_order(datum: RootDatum, sub=None) -> int:
    """|W_J| in closed form from the run decomposition."""
    sub = _resolve_sub(datum, sub)
    order = 1
    for kind, coords in _runs(datum, sub):
        s = len(coords)
        fact = 1
        for i in range(2, s + 1):
            fact *= i
        order *= fact * (2 ** s if kind == "C" else 1)
    return order
