"""Root data for the supported families, with exact arithmetic throughout.

Families and their coordinate conventions on h*:

* ``gl`` (m|n):   basis e_1..e_{m+n}; form +1 on the first m coordinates and
  -1 on the last n; even roots e_i - e_j within a block, odd roots across
  blocks (all isotropic).
* ``osp2`` (2|2n): basis (e; d_1..d_n); form (+1, (-1)^n); even roots are the
  type-C system on the d's, odd roots +-e +- d_i (all isotropic).
* ``p`` (n):      basis e_1..e_n, form (+1)^n; even roots e_i - e_j; odd
  roots e_i + e_j (i <= j) on one side and -(e_i + e_j) (i < j) on the
  other, none isotropic for this form.
* ``osp32``:      fixed rank-2 datum with basis (d, e), <d,d> = -1,
  <e,e> = +1; even positive roots {2d, e}, odd positive {d+e, d-e, d} with
  d+-e isotropic.
* ``reductive``:  products of type A and type C factors, e.g. A2 x C1.

Every datum's `blocks` are the type A and type C windows of its even part,
and its even roots and Pi_0 are read off them (`_even_roots`); osp(3|2),
whose e is the short B1 root rather than 2e, is the one explicit list.

The Weyl vector rho0 is half the sum of the even positive roots except for
p(n), which uses the normalized rho0 = (n-1, n-2, ..., 1, 0): the dot action
only sees rho0 up to a W-fixed vector, and every downstream p(n) statement
is phrased against this representative.  rho = rho0 - rho1 always holds
coordinate-exactly.

Each root is built once, as the sparse integer vector ((i, c_i), ...) that
`Root.vector` holds (every root here has at most two nonzero coordinates);
isotropy, rho0, rho1 and the integer frame are computed on these integers,
and the dense `Root.weight` is built on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ConstructionError, DimensionMismatchError, UnsupportedInputError
from .weights import Weight, format_weight, parse_weight

EVEN = "even"
ODD = "odd"

# Weyl-group coordinate blocks: kind "A" permutes the window, kind "C"
# signed-permutes it.  A window of size 1 with kind "A" is fixed pointwise.
Block = tuple[str, int, int]  # (kind, start, size)
Vector = tuple[tuple[int, int], ...]
_ZERO = Fraction(0)


@dataclass(frozen=True)
class Root:
    vector: Vector  # sparse integer coordinates ((i, c_i), ...), c_i != 0, i ascending
    dim: int
    parity: str  # "even" | "odd"
    isotropic: bool

    @cached_property
    def weight(self) -> Weight:
        """The root as a dense weight, built on first use."""
        coords = [_ZERO] * self.dim
        for i, c in self.vector:
            coords[i] = Fraction(c)
        return Weight._of(tuple(coords))

    def __repr__(self):
        tag = "iso" if self.isotropic else self.parity
        return f"Root({format_weight(self.weight)}, {tag})"


@dataclass(frozen=True)
class RootDatum:
    family: str
    params: tuple[int, ...]
    dim: int
    form_signature: tuple[Fraction, ...]
    simple_even: tuple[Root, ...]        # Pi_0
    even_positive: tuple[Root, ...]      # Phi_0^+
    odd_roots: tuple[Root, ...]          # all of Phi_1 (p(n) is not +- symmetric)
    odd_positive: tuple[Root, ...]       # roots of the odd part of n^+
    isotropic_roots: tuple[Root, ...]
    rho0: Weight
    rho1: Weight
    rho: Weight
    blocks: tuple[Block, ...]
    literal_seps: tuple[tuple[int, str], ...]  # block markers for weight literals

    def describe(self) -> str:
        if self.family == "gl":
            return f"gl({self.params[0]}|{self.params[1]})"
        if self.family == "osp2":
            return f"osp(2|{2 * self.params[0]})"
        if self.family == "p":
            return f"p({self.params[0]})"
        if self.family == "osp32":
            return "osp(3|2)"
        return "x".join(f"{k}{s if k == 'C' else s - 1}"
                        for k, _, s in self.blocks)

    def format_weight(self, w: Weight) -> str:
        return format_weight(w, self.literal_seps)

    def parse_weight(self, text: str) -> Weight:
        return parse_weight(text, self.dim)

    def check_dim(self, w: Weight) -> None:
        if len(w) != self.dim:
            raise DimensionMismatchError(
                f"{self.describe()} expects {self.dim} coordinates, got {len(w)}")


def bilinear(datum: RootDatum, lam: Weight, mu: Weight) -> Fraction:
    """The family's W-invariant form: sum_i s_i lam_i mu_i with s_i = +-1."""
    datum.check_dim(lam)
    datum.check_dim(mu)
    return sum((s * a * b for s, a, b in zip(datum.form_signature, lam, mu)),
               Fraction(0))


def pairing_coroot(datum: RootDatum, lam: Weight, alpha: Root | Weight) -> Fraction:
    """<lam, alpha^vee> with alpha^vee = 2 alpha / <alpha, alpha>."""
    w = alpha.weight if isinstance(alpha, Root) else alpha
    norm = bilinear(datum, w, w)
    if norm == 0:
        raise UnsupportedInputError("coroot pairing is undefined for an isotropic root")
    return 2 * bilinear(datum, lam, w) / norm


def _scaled(w: Weight, D: int) -> tuple[int, ...] | None:
    """D w as ints, or None when D w is not integral."""
    n = []
    for c in w.coords:
        k, r = divmod(D, c.denominator)
        if r:
            return None
        n.append(c.numerator * k)
    return tuple(n)


class _IntegerFrame:
    """The datum's integer data over D, the least common denominator of rho0
    and rho: `rho0` and `rho` are D rho0 and D rho; `roots` and `coroots`
    hold, per even positive root in even_positive order, its root vector and
    its coroot as sparse int pairs (i, c_i), c_i != 0, where <lam, alpha^vee>
    = sum_i c_i lam_i, i.e. c = 2 s alpha / <alpha, alpha> for the form
    signature s; `position` maps each even positive root to its index, and
    `simple` holds the positions of Pi_0.  A datum whose coroots are not
    integral is refused; every supported family has integral ones.  A weight
    lam and an integer shift (such as `rho0`) convert to (E, N): E the lcm
    of D and lam's denominators, and N = E lam + (E / D) shift = E (lam +
    shift / D).
    """

    def __init__(self, datum: RootDatum):
        self.D = D = math.lcm(*(c.denominator for c in (*datum.rho0, *datum.rho)))
        self.rho0, self.rho = _scaled(datum.rho0, D), _scaled(datum.rho, D)
        sig, coroots = list(map(int, datum.form_signature)), []
        for root in datum.even_positive:
            norm = sum(sig[i] * a * a for i, a in root.vector)
            if any(2 * sig[i] * a % norm for i, a in root.vector):
                raise UnsupportedInputError(f"{datum.describe()} needs integer roots and coroots")
            coroots.append(tuple((i, 2 * sig[i] * a // norm) for i, a in root.vector))
        self.roots = tuple(r.vector for r in datum.even_positive)
        self.coroots = tuple(coroots)
        self.position = {r: k for k, r in enumerate(datum.even_positive)}
        self.simple = tuple(map(self.position.__getitem__, datum.simple_even))

    def shifted(self, lam: Weight, shift: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """(E, N) with N = E lam + (E / D) shift."""
        E = math.lcm(self.D, *(c.denominator for c in lam.coords))
        k = E // self.D
        return E, tuple(c.numerator * (E // c.denominator) + k * s
                        for c, s in zip(lam.coords, shift))

    def unshifted(self, E: int, points, shift: tuple[int, ...]) -> list[Weight]:
        """The weights N / E - shift / D of the points N (entries past dim are
        ignored): the inverse of `shifted`."""
        shift = [E // self.D * s for s in shift]
        return [Weight._of(tuple(Fraction(v - s, E) for v, s in zip(n, shift)))
                for n in points]


def _derived(datum: RootDatum, build, *args):
    """build(datum, *args), memoized in a dict on the datum object.

    Every table derived from a datum lives here, so it dies with the datum,
    and a lookup hashes (build, *args) only: it never compares two equal
    data field by field.  The datum is frozen, so the dict is written
    through its __dict__.  A refusal raises out of build and is not cached.
    """
    memo = datum.__dict__.setdefault("_derived", {})
    key = (build, *args)
    value = memo.get(key)
    if value is None:
        value = memo.setdefault(key, build(datum, *args))
    return value


def _integer_frame(datum: RootDatum) -> _IntegerFrame:
    """The datum's integer frame, built on first use."""
    return _derived(datum, _IntegerFrame)


def is_integral(datum: RootDatum, lam: Weight) -> bool:
    """True iff <lam, alpha^vee> is an integer for every even positive root."""
    datum.check_dim(lam)
    return all(pairing_coroot(datum, lam, a).denominator == 1
               for a in datum.even_positive)


def _vector(*terms: tuple[int, int]) -> Vector:
    """The sparse vector sum_k c_k e_{i_k} of the terms (i_k, c_k)."""
    out: dict[int, int] = {}
    for i, c in terms:
        out[i] = out.get(i, 0) + c
    return tuple(sorted((i, c) for i, c in out.items() if c))


def _half_sum(dim: int, vectors: list[Vector]) -> Weight:
    total = [0] * dim
    for v in vectors:
        for i, c in v:
            total[i] += c
    return Weight._of(tuple(Fraction(t, 2) for t in total))


def _even_roots(blocks) -> tuple[list[Vector], list[Vector]]:
    """Phi_0^+ and Pi_0 of the (kind, start, size) windows: e_i - e_j (i < j)
    in each window, and in a type C window also e_i + e_j, then 2e_i; Pi_0
    is e_i - e_{i+1} per window, plus 2e_last for a type C window."""
    even_pos, simple = [], []
    for kind, start, size in blocks:
        end = start + size
        for i in range(start, end):
            for j in range(i + 1, end):
                even_pos.append(_vector((i, 1), (j, -1)))
                if kind == "C":
                    even_pos.append(_vector((i, 1), (j, 1)))
            if kind == "C":
                even_pos.append(_vector((i, 2)))
        simple += [_vector((i, 1), (i + 1, -1)) for i in range(start, end - 1)]
        if kind == "C":
            simple.append(_vector((end - 1, 2)))
    return even_pos, simple


def _finish(family, params, dim, signature, blocks, seps, odd_pos=(), odd_neg=None,
            rho0=None, even=None) -> RootDatum:
    """The datum; `even` lists Phi_0^+ = Pi_0 for osp(3|2), odd_neg is -odd_pos unless given."""
    def mk(v: Vector, parity: str) -> Root:
        return Root(v, dim, parity, not sum(signature[i] * c * c for i, c in v))

    even_pos, simple = (even, even) if even else _even_roots(blocks)
    if odd_neg is None:
        odd_neg = [tuple((i, -c) for i, c in v) for v in odd_pos]
    even_roots = tuple(mk(v, EVEN) for v in even_pos)
    by_vector = {r.vector: r for r in even_roots}
    simple_roots = tuple(by_vector[v] for v in simple)
    odd_roots = tuple(mk(v, ODD) for v in (*odd_pos, *odd_neg))
    odd_positive = tuple(mk(v, ODD) for v in odd_pos)
    iso = tuple(r for r in odd_roots if r.isotropic)
    if any(r.isotropic for r in even_roots):
        raise ConstructionError("even roots must be non-isotropic")

    rho0 = rho0 if rho0 is not None else _half_sum(dim, even_pos)
    rho1 = _half_sum(dim, odd_pos)
    return RootDatum(
        family=family, params=tuple(params), dim=dim,
        form_signature=tuple(Fraction(s) for s in signature),
        simple_even=simple_roots, even_positive=even_roots,
        odd_roots=odd_roots, odd_positive=odd_positive, isotropic_roots=iso,
        rho0=rho0, rho1=rho1, rho=rho0 - rho1,
        blocks=tuple(blocks), literal_seps=tuple(seps))


def build_gl(m: int, n: int) -> RootDatum:
    if m < 1 or n < 1:
        raise ConstructionError(f"gl(m|n) needs positive m, n; got ({m}|{n})")
    odd_pos = [_vector((i, 1), (j, -1)) for i in range(m) for j in range(m, m + n)]
    return _finish("gl", (m, n), m + n, [1] * m + [-1] * n, [("A", 0, m), ("A", m, n)],
                   [(m, "|")], odd_pos)


def build_osp2(n: int) -> RootDatum:
    if n < 1:
        raise ConstructionError(f"osp(2|2n) needs positive n; got n={n}")
    # basis (e; d_1..d_n), d_i at coordinate i+1
    odd_pos = [_vector((0, 1), (i, c)) for c in (-1, 1) for i in range(1, n + 1)]
    return _finish("osp2", (n,), n + 1, [1] + [-1] * n, [("A", 0, 1), ("C", 1, n)],
                   [(1, ";")], odd_pos)


def build_p(n: int) -> RootDatum:
    if n < 2:
        raise ConstructionError(f"p(n) needs n >= 2; got n={n}")
    # odd part of n^+ is symmetric matrices (weights e_i + e_j, i <= j);
    # the opposite side is antisymmetric, so -2e_i is not a root
    odd_pos = [_vector((i, 1), (j, 1)) for i in range(n) for j in range(i, n)]
    odd_neg = [_vector((i, -1), (j, -1)) for i in range(n) for j in range(i + 1, n)]
    rho0 = Weight([n - 1 - i for i in range(n)])
    return _finish("p", (n,), n, [1] * n, [("A", 0, n)], [], odd_pos, odd_neg, rho0)


def build_osp32() -> RootDatum:
    # basis (d, e) with <d,d> = -1, <e,e> = 1; Phi_0^+ = Pi_0 = {2d, e}, e
    # the short B1 root, so the even roots are listed, not read off the windows
    odd_pos = [_vector((0, 1), (1, 1)), _vector((0, 1), (1, -1)), _vector((0, 1))]
    return _finish("osp32", (), 2, [-1, 1], [("C", 0, 1), ("C", 1, 1)], [], odd_pos,
                   even=[_vector((0, 2)), _vector((1, 1))])


def _parse_factor(token) -> tuple[str, int]:
    if isinstance(token, tuple):
        kind, rank = token
    else:
        text = str(token).strip().upper()
        kind, rank = text[:1], text[1:]
    kind = str(kind).upper()
    try:
        rank = int(rank)
    except (TypeError, ValueError):
        raise ConstructionError(f"bad reductive factor {token!r}")
    if kind not in ("A", "C") or rank < 1:
        raise ConstructionError(f"bad reductive factor {token!r}; use A<k> or C<k>")
    return kind, rank


def build_reductive(factors) -> RootDatum:
    """Product of type A_k (on k+1 coordinates) and type C_k factors."""
    if isinstance(factors, str):
        factors = [f for f in factors.replace("x", ",").split(",") if f.strip()]
    parsed = [_parse_factor(f) for f in factors]
    if not parsed:
        raise ConstructionError("reductive datum needs at least one factor")
    blocks, start = [], 0
    for kind, rank in parsed:
        size = rank + 1 if kind == "A" else rank
        blocks.append((kind, start, size))
        start += size
    return _finish("reductive", tuple(r for _, r in parsed), start, [1] * start, blocks,
                   [(b, "|") for _, b, _ in blocks[1:]])


def build_root_datum(family: str, *, m: int | None = None, n: int | None = None,
                     factors=None) -> RootDatum:
    """Construct a root datum; raises ConstructionError for bad requests."""
    family = family.lower()
    if family == "gl":
        if m is None or n is None:
            raise ConstructionError("gl(m|n) needs both m and n")
        return build_gl(m, n)
    if family == "osp2":
        if n is None:
            raise ConstructionError("osp(2|2n) needs n")
        return build_osp2(n)
    if family == "p":
        if n is None:
            raise ConstructionError("p(n) needs n")
        return build_p(n)
    if family == "osp32":
        return build_osp32()
    if family == "reductive":
        if factors is None:
            raise ConstructionError("reductive datum needs factors, e.g. 'A2,C1'")
        return build_reductive(factors)
    raise ConstructionError(f"unsupported family {family!r}")


