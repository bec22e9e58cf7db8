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

The single-weight queries `orbit_dot`, `is_antidominant`, `is_dominant`,
`stabilizer_roots` and `antidominant_rep` run on the integer shifted
coordinates N = D (x + rho0), each weight converted once per call by
root_data's integer frame (D a common denominator of x and the frame).  A
simple reflection permutes N with signs, so the orbit BFS applies it to the
doubled point (N, -N) as one itemgetter and does no arithmetic;
(anti-)dominance and stabilizers pair N with the frame's integer coroots,
and the anti-dominant representative sorts N window by window.  Points
convert back to weights once, at the end.  A reflection element is read
off the frame's integer root and coroot.  `reflect` and root_data's
`is_integral` still pair through the Fraction `bilinear`; `dot` applies the
signed permutation to Fraction coordinates.  `antidominant_rep` and
`stabilizer_roots` call `is_integral` first, so their refusals keep their
types and messages.  The integer body of `antidominant_rep` is
`_antidominant_rep`, which checks nothing; three callers that have already
refused a non-integral weight call it directly: kl's `_position` (both
weights of `whittaker_mult`, the weight of `whittaker_length` and every
orbit point of `builtin_verma_table`), the base weight of
`builtin_verma_table`, and whittaker's `classify_simple`.  One re-check is
left: kl's `_require_regular` calls `stabilizer_roots` on a weight its
caller has checked.  Dropping it as well moved the `kl` benchmark's
`peak_rss_mb` by +10.0% (26.00 to 28.60 MB), at its bound, and by +10.8%
to +13.7% in three later runs (2 vCPU, Python 3.11.7), since the
benchmark worker keeps every op's latency.  Moving the integrality test
onto N waits on a leaner worker for the same reason.

Group structure has one integer index (`_Index`) per datum, numbering the
whole Weyl group; the KL engine reads it too.  It, the reflection
itemgetters and the parabolic coroots are kept on the datum by root_data's
`_derived`, so they die with it.  `length`, `longest_element` and
`reduced_word` query that index on the Pi_0 letters of `sub`, after
refusing a group above KL_GROUP_CAP from its closed-form order, also kept
on the datum.  `_refuse_above` is the one place that words the cap
refusal: it prints the order, or names one with more digits than Python
prints as an int by its window formula (`400!`, `2^k k!` and their
products).
"""
from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import CapExceededError, SuperlinkError, UnsupportedInputError
from .root_data import (EVEN, Root, RootDatum, _derived, _integer_frame, is_integral,
                        pairing_coroot)
from .weights import Weight

# parenthesised groups of signed integers, separated by spaces or commas
_SIGNED = r"[+-]?[0-9]+"
_CYCLES = re.compile(rf"(?:\(\s*(?:{_SIGNED}(?:(?:\s*,\s*|\s+){_SIGNED})*)?\s*\)\s*)+")
KL_GROUP_CAP = 40320  # memory guard on |W| for a group index and its KL memos


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

    def apply(self, w: Weight) -> Weight:
        coords = [Fraction(0)] * self.dim
        for i, v in enumerate(self.images):
            j = abs(v) - 1
            coords[j] = w[i] if v > 0 else -w[i]
        return Weight(coords)

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self after other: (self * other)(x) = self(other(x))."""
        return WeylElement(_left_mult(self.images, other.images))

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
        """Parse the `to_cycles` notation: `e`, `1`, or parenthesised groups
        of signed integers separated by spaces or commas; anything else is
        refused."""
        text = text.strip()
        if text in ("", "e", "()", "1"):
            return WeylElement.identity(dim)
        if not _CYCLES.fullmatch(text):
            raise SuperlinkError(f"not a signed-cycle literal: {text!r}")
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
    """The reflection s_alpha of an even positive root as a signed
    permutation: s(e_i) = e_i - c_i alpha for the integer root alpha and
    coroot c of root_data's frame."""
    _require_even(alpha)
    frame = _integer_frame(datum)
    k = frame.position.get(alpha)
    if k is None:
        raise UnsupportedInputError("reflections are built for the datum's even positive roots")
    root, coroot = frame.roots[k], dict(frame.coroots[k])
    images = []
    for i in range(datum.dim):
        image = {i: 1}
        for j, a in root:
            image[j] = image.get(j, 0) - coroot.get(i, 0) * a
        nonzero = [(j, c) for j, c in image.items() if c]
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


def _shifted(datum: RootDatum, lam: Weight) -> tuple[int, tuple[int, ...]]:
    """(D, N): the integer shifted coordinates N = D (lam + rho0) over a
    common denominator D of lam and root_data's frame."""
    if len(lam) != datum.dim:
        raise ValueError("weight dimensions differ")
    frame = _integer_frame(datum)
    return frame.shifted(lam, frame.rho0)


def _unshifted(datum: RootDatum, D: int, points) -> list[Weight]:
    """The weights N / D - rho0 of shifted points N (entries past dim are
    ignored)."""
    frame = _integer_frame(datum)
    return frame.unshifted(D, points, frame.rho0)


def _parabolic_coroots(datum: RootDatum, chosen: tuple[int, ...]) -> tuple:
    """root_data's integer coroots of the parabolic positive roots of the
    simple even roots with these indices.

    These are the even positive roots in the span of the chosen simple
    roots (Humphreys, Reflection Groups and Coxeter Groups, 1990, 1.10):
    in these families, the roots supported inside one `_runs` window, where
    a type A window takes only the e_i - e_j.
    """
    windows = _runs(datum, [datum.simple_even[j] for j in chosen])
    frame = _integer_frame(datum)
    return tuple(coroot for root, coroot in zip(frame.roots, frame.coroots)
                 if any(all(i in coords for i, _ in root)
                        and (kind == "C" or not sum(a for _, a in root))
                        for kind, coords in windows))


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
    return _antidominant_at(_derived(datum, _parabolic_coroots, chosen), D, n)


def is_dominant(datum: RootDatum, lam: Weight) -> bool:
    """No <lam + rho0, a^vee> is a negative integer: -N is anti-dominant."""
    D, n = _shifted(datum, lam)
    return _antidominant_at(_integer_frame(datum).coroots, D, [-v for v in n])


def _runs(datum: RootDatum, sub: Sequence[Root]) -> list[tuple[str, list[int]]]:
    """Connected components of `sub`, as (kind, coordinate window) pairs.

    A component is type C exactly when it contains a one-coordinate root
    (2d_n, e, 2e_k); otherwise it is a type A chain.
    """
    supports = [frozenset(i for i, _ in r.vector) for r in sub]
    out, seen = [], set()
    for k in range(len(sub)):
        if k not in seen:
            members = list(chain.from_iterable(_closure(
                k, lambda i: [j for j, s in enumerate(supports) if s & supports[i]])))
            seen.update(members)
            kind = "C" if any(len(supports[i]) == 1 for i in members) else "A"
            out.append((kind, sorted(set().union(*(supports[i] for i in members)))))
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
    return _antidominant_rep(datum, lam, sub)


def _antidominant_rep(datum: RootDatum, lam: Weight, sub=None) -> tuple[Weight, WeylElement]:
    """`antidominant_rep` for a weight its caller has already refused unless
    integral (and so of the datum's dimension); the body sorts N = D (lam +
    rho0) window by window and checks nothing."""
    sub = _resolve_sub(datum, sub)
    D, n = _shifted(datum, lam)
    images = list(range(1, datum.dim + 1))
    rep = list(n)
    for kind, coords in _runs(datum, sub):
        if kind == "A":
            ranked = sorted(coords, key=lambda i: (n[i], i))
            for slot, src in zip(coords, ranked):
                images[src] = slot + 1
                rep[slot] = n[src]
        else:
            ranked = sorted(coords, key=lambda i: (-abs(n[i]), i))
            for slot, src in zip(coords, ranked):
                sign = -1 if n[src] > 0 else 1
                images[src] = sign * (slot + 1)
                rep[slot] = sign * n[src]
    return _unshifted(datum, D, [rep])[0], WeylElement(tuple(images))


def stabilizer_roots(datum: RootDatum, lam: Weight) -> tuple[Root, ...]:
    """Even positive roots whose reflections dot-fix the integral weight."""
    if not is_integral(datum, lam):
        raise UnsupportedInputError("stabilizer roots are computed for integral weights")
    _, n = _shifted(datum, lam)
    return tuple(a for a, coroot in zip(datum.even_positive, _integer_frame(datum).coroots)
                 if not sum(c * n[i] for i, c in coroot))


def _refuse_above(windows, cap, configured=False) -> None:
    """Refuse a Weyl group with these (kind, size) windows above the cap.

    The refusal prints the order, or names it by its window formula (`400!`,
    `2^k k!`, a product as the factors side by side) once it has more digits
    than Python prints as an int; a window past those digits is not
    multiplied out.  A configured cap words the refusal as such, as a plain
    SuperlinkError.
    """
    # the limit is 640 digits or more and k! > 10^k from k = 25, so a window
    # longer than the limit has an unprintable order
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    order = (math.prod(_window_order(kind, size) for kind, size in windows)
             if all(size <= digits for _, size in windows) else math.inf)
    if order > cap:
        shown = order if order < 10 ** digits else " ".join(
            f"2^{size} {size}!" if kind == "C" else f"{size}!" for kind, size in windows)
        if configured:
            raise SuperlinkError(f"|W| = {shown} exceeds configured cap")
        raise CapExceededError(f"|W| = {shown} exceeds the cap {cap}")


def _refuse_group(datum: RootDatum, cap) -> int:
    """The order of the datum's Weyl group, kept on the datum, refused above
    the cap."""
    order = _derived(datum, weyl_order)
    if order > cap:  # only a refusal reads the windows
        _refuse_above([(kind, len(coords)) for kind, coords in _runs(datum, datum.simple_even)],
                      cap)
    return order


def _sub_index(datum: RootDatum, sub) -> tuple["_Index", list[int]]:
    """The datum's group index, refused above the cap before anything is
    built, and sub as Pi_0 indices in its order."""
    sub = _resolve_sub(datum, sub)
    _refuse_group(datum, KL_GROUP_CAP)
    return _derived(datum, _Index), [datum.simple_even.index(r) for r in sub]


def _strip(ix: "_Index", x: int, letters: Sequence[int]) -> tuple[list[int], int]:
    """(word, rest): strip from x its first left descent among the letters
    while there is one."""
    word = []
    while (i := next((i for i in letters if ix.desc[x] >> i & 1), None)) is not None:
        word.append(i)
        x = ix.lmul[i][x]
    return word, x


def length(datum: RootDatum, w: WeylElement, sub=None) -> int:
    """Coxeter length in the parabolic subgroup: the number of left
    sub-descents stripped from w^-1, which is the number of inversions of w
    among the parabolic positive roots (also for w outside W_sub)."""
    ix, letters = _sub_index(datum, sub)
    return len(_strip(ix, ix.of(w.inverse()), letters)[0])


def longest_element(datum: RootDatum, sub=None) -> WeylElement:
    """The longest element of the parabolic subgroup generated by `sub`,
    climbed to from e by the sub-letters that are no left descent."""
    ix, letters = _sub_index(datum, sub)
    x = 0
    while (i := next((i for i in letters if not ix.desc[x] >> i & 1), None)) is not None:
        x = ix.lmul[i][x]
    return WeylElement(ix.images[x])


def reduced_word(datum: RootDatum, w: WeylElement, sub=None) -> list[Root]:
    """A reduced word for w, as a list of simple roots (left-to-right
    product): each letter is the first left descent in `sub`'s order."""
    ix, letters = _sub_index(datum, sub)
    word, rest = _strip(ix, ix.of(w), letters)
    if rest:
        raise UnsupportedInputError("element is not in the given parabolic subgroup")
    return [datum.simple_even[i] for i in word]


def _closure(seed, moves) -> list[list]:
    """The BFS levels of seed's closure under moves.

    levels[k] lists, in discovery order, the points first reached after k
    moves; moves(x) yields the neighbours of x.
    """
    seen = {seed}
    levels = [[seed]]
    while True:
        nxt = []
        for x in levels[-1]:
            for y in moves(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if not nxt:
            return levels
        levels.append(nxt)


def _left_mult(s: tuple[int, ...], x: tuple[int, ...]) -> tuple[int, ...]:
    """Images of s x for signed-permutation images s and x, unvalidated."""
    return tuple(s[v - 1] if v > 0 else -s[-v - 1] for v in x)


class _Index:
    """The elements of the datum's Weyl group (the i-th generator is the
    reflection of the i-th simple even root), as ids 0..n-1 ordered by
    (length, images).

    Id 0 is the identity and id n-1 the longest element.  `images[x]` are
    the images of x and `ids` maps them back; `lmul[i][x]` is the id of
    s_i x, `desc[x]` the left-descent bitmask and `first[x]` its lowest set
    bit (-1 at the identity); `w0x[x]` is the id of w0 x.  Reduced words
    come from `_strip`.
    """

    def __init__(self, datum: RootDatum):
        gens = [reflection_element(datum, alpha).images for alpha in datum.simple_even]
        # BFS distance from e is the Coxeter length
        levels = [sorted(level) for level in _closure(
            tuple(range(1, datum.dim + 1)), lambda x: (_left_mult(g, x) for g in gens))]
        self.images = [x for level in levels for x in level]
        self.ids = {x: i for i, x in enumerate(self.images)}
        self.n = len(self.images)
        self.length = L = [k for k, level in enumerate(levels) for _ in level]
        self.lmul = [[self.ids[_left_mult(g, x)] for x in self.images] for g in gens]
        self.desc = [sum(1 << i for i, row in enumerate(self.lmul) if L[row[x]] < L[x])
                     for x in range(self.n)]
        self.first = [(d & -d).bit_length() - 1 for d in self.desc]
        self.w0x = [self.ids[_left_mult(self.images[-1], x)] for x in self.images]

    def of(self, w: WeylElement) -> int:
        """The id of w, refusing an element outside the group."""
        try:
            return self.ids[w.images]
        except KeyError:
            raise UnsupportedInputError(f"{w!r} is not an element of the group") from None


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
    moves = _derived(datum, _reflection_moves)
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
    coroots = _derived(datum, _parabolic_coroots, tuple(map(datum.simple_even.index, sub)))
    return sorted(_unshifted(datum, D, (x for x in points if _antidominant_at(coroots, D, x))))


def _window_order(kind: str, size: int) -> int:
    """The order of the Weyl group of one window of `size` coordinates:
    S_size for type A, the hyperoctahedral group for type C."""
    return math.factorial(size) * (2 ** size if kind == "C" else 1)


def weyl_order(datum: RootDatum, sub=None) -> int:
    """|W_J| in closed form from the run decomposition."""
    sub = _resolve_sub(datum, sub)
    return math.prod(_window_order(kind, len(coords)) for kind, coords in _runs(datum, sub))
