"""Kazhdan-Lusztig polynomials and standard-module composition multiplicities.

The KL engine works over the Weyl group of a datum, a group of signed
permutations of its coordinates (type A / type C products).  A group
numbers its elements by weyl's index, one per datum: ids by (length,
images), with per id the left multiplications by simple reflections, the
length and the left-descent bitmask.  One memo on these integers
(`_KLMemo`) is kept beside the index, also one per datum.  Bruhat order
keeps one lower ideal per element as a bitset, built by [e, w] = [e, sw] u
s[e, sw] for a left descent s.  The KL recursion is the classical one on a
left descent s of w:

    P_{x,w} = q^{1-c} P_{sx,sw} + q^c P_{x,sw}
              - sum_z mu(z, sw) q^{(l(w)-l(z))/2} P_{x,z}

with c = 1 iff sx < x, the sum over x <= z <= sw with sz < z, and mu(z, v)
the coefficient of q^{(l(v)-l(z)-1)/2} in P_{z,v}.  Only extremal pairs are
stored: P_{x,w} = P_{sx,w} for every s in D_L(w), so x first climbs until
D_L(w) lies in D_L(x) (then c = 1).  The z-sum runs over a per-v list of
the z with mu(z, v) != 0, which by the same identity needs only the z with
D_L(v) in D_L(z) or l(v) - l(z) = 1 (du Cloux, Experiment. Math. 11, 2002;
Bjorner-Brenti, Combinatorics of Coxeter Groups, Ch. 5).  An independent
R-polynomial inversion of the same table lives in the oracle module.

Multiplicity conventions, pinned by the rank-1 sanity triple (an
anti-dominant Verma is simple; the dominant rank-1 Verma has length 2):
for anti-dominant regular integral lam,

    [M(w . lam) : L(x . lam)] = P_{w0 w, w0 x}(1).

Standard Whittaker multiplicities reduce to these: for integral mu the sum

    [M(lam, zeta) : L(mu, zeta)] = sum_gamma [M(lam) : L(gamma)]

runs over W_zeta-anti-dominant gamma with mu in the W_zeta dot orbit, and
that set is asserted to be a singleton.  Built-in multiplicities exist only
for reductive data with regular integral lam; anything else takes a
user-supplied table (`<weight> <weight> <count>` lines, `#` comments).
Without a table, gamma = y . base for the anti-dominant base of lam's orbit
and a unique y, and gamma is W_zeta-anti-dominant exactly when y has no left
descent in zeta's support, so a multiplicity is one KL lookup and a length
one row of at most |W| lookups.

Concurrency: this module keeps no state of its own.  weyl's index and the
KL memo over it are kept on the datum object by root_data's `_derived`
and die with it: every group object of a datum, the multiplicity functions
and the CLI's `klpoly` and `mult` read that one memo, so repeated calls on
one datum reuse it.  The package's other caches are listed in the README.
An index is never written after it is built, and everything the memo holds
(ideals, polynomials, mu-lists) is a pure value written through single
atomic assignments, so concurrent calls return identical results; at worst
two threads duplicate a computation before one wins the insert.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import MissingTableEntryError, SuperlinkError, UnsupportedInputError
from .root_data import RootDatum, _derived, build_reductive, is_integral
from .weights import Weight
from .weyl import (KL_GROUP_CAP, WeylElement, _antidominant_points, _antidominant_rep,
                   _Index, _parabolic, _refuse_group, dot, is_antidominant,
                   reflection_element, stabilizer_roots)


def _pnorm(a: Iterable[int]) -> tuple[int, ...]:
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class KLPolynomial:
    """Polynomial in q with nonnegative integer coefficients, constant first."""

    coeffs: tuple[int, ...]

    @staticmethod
    def of(coeffs: Iterable[int]) -> "KLPolynomial":
        return KLPolynomial(_pnorm(coeffs))

    @property
    def is_zero(self) -> bool:
        return self.coeffs == ()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                q = "q" if i == 1 else f"q^{i}"
                terms.append(q if c == 1 else f"{c}{q}")
        return " + ".join(terms)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    return [i for i, c in enumerate(reversed(bin(mask))) if c == "1"]


class _KLMemo:
    """The datum's Bruhat ideals, KL polynomials and mu-lists, memoized on
    the ids of its weyl index (whose tables it reads in place)."""

    def __init__(self, datum: RootDatum):
        index = _derived(datum, _Index)
        self.n, self.images, self.length = index.n, index.images, index.length
        self.lmul, self.desc, self.first = index.lmul, index.desc, index.first
        self._ideal: list[int | None] = [1] + [None] * (self.n - 1)
        self._kl: dict[int, tuple[int, ...]] = {}
        self._mu: dict[int, list[tuple[int, int]]] = {}

    def ideal(self, y: int) -> int:
        """Bitset of the Bruhat interval [e, y]."""
        b = self._ideal[y]
        if b is None:
            row = self.lmul[self.first[y]]
            b = below = self.ideal(row[y])
            for z in _bits(below):
                b |= 1 << row[z]
            self._ideal[y] = b
        return b

    def leq(self, x: int, y: int) -> bool:
        if self.length[x] >= self.length[y]:
            return x == y
        return self.ideal(y) >> x & 1 == 1

    def kl(self, x: int, w: int) -> tuple[int, ...]:
        """Coefficients of P_{x,w}, constant first."""
        desc, lmul = self.desc, self.lmul
        up = desc[w] & ~desc[x]
        while up:  # P_{x,w} = P_{sx,w} for s in D_L(w)
            x = lmul[(up & -up).bit_length() - 1][x]
            up = desc[w] & ~desc[x]
        if x == w:
            return (1,)
        key = x * self.n + w
        p = self._kl.get(key)
        if p is None:
            p = self._kl[key] = self._recurse(x, w) if self.leq(x, w) else ()
        return p

    def _recurse(self, x: int, w: int) -> tuple[int, ...]:
        """P_{x,w} for x < w with D_L(w) inside D_L(x), so c = 1."""
        L = self.length
        i = self.first[w]
        v = self.lmul[i][w]
        acc = [0] * ((L[w] - L[x]) // 2 + 1)
        for k, c in enumerate(self.kl(self.lmul[i][x], v)):
            acc[k] += c
        for k, c in enumerate(self.kl(x, v)):
            acc[k + 1] += c
        for z, m in self.mu(v):
            if self.desc[z] >> i & 1 and self.leq(x, z):
                shift = (L[w] - L[z]) // 2
                for k, c in enumerate(self.kl(x, z)):
                    acc[k + shift] -= m * c
        coeffs = _pnorm(acc)
        if any(c < 0 for c in coeffs):
            raise SuperlinkError(f"negative KL coefficient at "
                                 f"{(self.images[x], self.images[w])}: {coeffs}")
        return coeffs

    def mu(self, v: int) -> list[tuple[int, int]]:
        """The (z, mu(z, v)) with z < v and mu(z, v) != 0."""
        out = self._mu.get(v)
        if out is None:
            out = []
            lv, dv = self.length[v], self.desc[v]
            for z in _bits(self.ideal(v)):
                gap = lv - self.length[z]
                if gap % 2 == 0:
                    continue
                if gap == 1:
                    out.append((z, 1))
                elif not dv & ~self.desc[z]:  # else P_{z,v} = P_{sz,v} has lower degree
                    p = self.kl(z, v)
                    k = (gap - 1) // 2
                    if k < len(p) and p[k]:
                        out.append((z, p[k]))
            self._mu[v] = out
        return out

    def value(self, x: int, w: int) -> int:
        """P_{x,w}(1)."""
        return sum(self.kl(x, w))


class FiniteWeylGroup:
    """A datum's Weyl group: a KL view of weyl's index of the datum and of
    the KL and Bruhat memo beside it, both kept on the datum, so every group
    of one datum object shares them.  The i-th generator is the reflection
    of the i-th root of `datum.simple_even`; lengths, reduced words and the
    longest element are weyl's `length`, `reduced_word` and
    `longest_element`."""

    def __init__(self, datum: RootDatum, cap: int = KL_GROUP_CAP):
        self.datum = datum
        self.order = _refuse_group(datum, cap)
        self.identity = WeylElement.identity(datum.dim)

    @staticmethod
    def symmetric(n: int) -> "FiniteWeylGroup":
        """The symmetric group S_n as the type A_{n-1} Weyl group."""
        return FiniteWeylGroup(build_reductive([("A", n - 1)]))

    @staticmethod
    def type_c(n: int) -> "FiniteWeylGroup":
        """The hyperoctahedral group of rank n."""
        return FiniteWeylGroup(build_reductive([("C", n)]))

    @cached_property
    def reflections(self) -> list[WeylElement]:
        return [reflection_element(self.datum, r) for r in self.datum.simple_even]

    @cached_property
    def _index(self) -> _Index:
        return _derived(self.datum, _Index)

    @cached_property
    def _memo(self) -> _KLMemo:
        return _derived(self.datum, _KLMemo)

    def elements(self) -> list[WeylElement]:
        return [WeylElement(x) for x in self._index.images]

    def from_word(self, word: Iterable[int]) -> WeylElement:
        w = self.identity
        for i in word:
            if not 0 <= int(i) < len(self.reflections):
                raise UnsupportedInputError(
                    f"word letter {i} out of range 0..{len(self.reflections) - 1}")
            w = w.compose(self.reflections[int(i)])
        return w


def _tables(datum: RootDatum, cap: int = KL_GROUP_CAP) -> tuple[_Index, _KLMemo]:
    """The datum's group index and KL memo, refused above the cap before
    anything is built."""
    _refuse_group(datum, cap)
    return _derived(datum, _Index), _derived(datum, _KLMemo)


def bruhat_leq(W: FiniteWeylGroup, x: WeylElement, y: WeylElement) -> bool:
    """Bruhat order, read off the lower ideal of y."""
    return W._memo.leq(W._index.of(x), W._index.of(y))


def kl_polynomial(W: FiniteWeylGroup, x: WeylElement, w: WeylElement) -> KLPolynomial:
    """The Kazhdan-Lusztig polynomial P_{x,w}, memoized per datum."""
    return KLPolynomial(W._memo.kl(W._index.of(x), W._index.of(w)))


@dataclass
class MultTable:
    """Composition multiplicities [M(lam) : L(gamma)], keyed by weight pairs."""

    entries: dict[tuple[Weight, Weight], int]
    provenance: str = "user-supplied"

    def get(self, lam: Weight, gamma: Weight) -> int:
        try:
            return self.entries[(lam, gamma)]
        except KeyError:
            raise MissingTableEntryError([(lam, gamma)]) from None

    def gammas_for(self, lam: Weight) -> list[Weight]:
        return sorted(g for (l, g) in self.entries if l == lam)


def _require_reductive(datum: RootDatum, takes_table: bool = False) -> None:
    """Refuse a super datum; the refusal advises a table only to a caller
    that takes one."""
    if datum.family != "reductive":
        raise UnsupportedInputError(
            "built-in multiplicity tables exist only for reductive data"
            + ("; supply a table for super families" if takes_table else ""))


def _require_regular(datum: RootDatum, lam: Weight) -> None:
    if stabilizer_roots(datum, lam):
        raise UnsupportedInputError("singular orbits are out of scope; weight must be regular")


def _require_regular_antidominant(datum: RootDatum, lam: Weight) -> None:
    if not is_integral(datum, lam):
        raise UnsupportedInputError("multiplicities need an integral weight")
    _require_regular(datum, lam)
    if not is_antidominant(datum, lam):
        raise UnsupportedInputError("the base weight must be anti-dominant")


def _position(datum: RootDatum, ix: _Index, mu: Weight) -> tuple[Weight, int]:
    """(base, k): the anti-dominant base of mu's dot orbit and the id k of
    w0 y, where y . base = mu; then [M(mu) : L(gamma)] = P_{k(mu),k(gamma)}(1).

    mu is integral: a weight its caller refused unless integral, or a dot
    image of one (rho0 pairs integrally with the even coroots, which W
    permutes)."""
    base, witness = _antidominant_rep(datum, mu)
    return base, ix.w0x[ix.of(witness.inverse())]


def verma_mult(datum: RootDatum, lam: Weight, w: WeylElement, x: WeylElement) -> int:
    """[M(w . lam) : L(x . lam)] for anti-dominant regular integral lam."""
    _require_reductive(datum)
    _require_regular_antidominant(datum, lam)
    ix, memo = _tables(datum)
    return memo.value(ix.w0x[ix.of(w)], ix.w0x[ix.of(x)])


def builtin_verma_table(datum: RootDatum, lam: Weight) -> MultTable:
    """The KL-backed table over the full dot orbit of a regular integral
    weight of a reductive datum.

    The orbit is read off the index: id y gives the point y . base of the
    anti-dominant base, distinct for distinct y as the orbit is regular,
    and its KL position w0 y."""
    _require_reductive(datum)
    if not is_integral(datum, lam):
        raise UnsupportedInputError("multiplicities need an integral weight")
    _require_regular(datum, lam)
    ix, memo = _tables(datum)
    base, _ = _antidominant_rep(datum, lam)
    ks = dict(sorted((dot(datum, WeylElement(ix.images[y]), base), ix.w0x[y])
                     for y in range(ix.n)))
    entries = {(mu, gamma): memo.value(k, j)
               for mu, k in ks.items() for gamma, j in ks.items()}
    return MultTable(entries, provenance="builtin-KL")


def gamma_summation_set(datum: RootDatum, mu: Weight, zeta) -> list[Weight]:
    """W_zeta-anti-dominant gamma with mu in their W_zeta dot orbit."""
    return _antidominant_points(datum, mu, zeta.support)


def whittaker_mult(datum: RootDatum, lam: Weight, mu: Weight, zeta,
                   table: MultTable | None = None, cap: int = KL_GROUP_CAP) -> int:
    """[M(lam, zeta) : L(mu, zeta)] by reduction to highest-weight data.

    Without a table the built-in multiplicities are used; `cap` bounds |W|.
    """
    if not is_integral(datum, lam) or not is_integral(datum, mu):
        raise UnsupportedInputError("Whittaker multiplicities need integral weights")
    gammas = gamma_summation_set(datum, mu, zeta)
    if len(gammas) != 1:
        raise SuperlinkError(
            f"gamma summation set is not a singleton for integral input: {gammas}")
    if table is None:
        _require_reductive(datum, takes_table=True)
        _require_regular(datum, lam)
        ix, memo = _tables(datum, cap)
        base, k = _position(datum, ix, lam)
        gamma_base, j = _position(datum, ix, gammas[0])
        if gamma_base != base:
            raise MissingTableEntryError([(lam, gammas[0])])
        return memo.value(k, j)
    missing = [(lam, g) for g in gammas if (lam, g) not in table.entries]
    if missing:
        raise MissingTableEntryError(missing)
    return sum(table.get(lam, g) for g in gammas)


def whittaker_length(datum: RootDatum, lam: Weight, zeta,
                     table: MultTable | None = None, cap: int = KL_GROUP_CAP) -> int:
    """Composition length of the standard Whittaker module at (lam, zeta).

    Without a table the built-in multiplicities are used; `cap` bounds |W|.
    """
    if not is_integral(datum, lam):
        raise UnsupportedInputError("Whittaker multiplicities need integral weights")
    if table is None:
        _require_reductive(datum, takes_table=True)
        _require_regular(datum, lam)
        ix, memo = _tables(datum, cap)
        k = _position(datum, ix, lam)[1]
        J = sum(1 << i for i in _parabolic(datum, zeta.support).letters)
        return sum(memo.value(k, ix.w0x[y]) for y in range(ix.n) if not ix.desc[y] & J)
    total = 0
    for gamma in table.gammas_for(lam):
        if is_antidominant(datum, gamma, zeta.support):
            total += table.get(lam, gamma)
    return total


def parse_mult_table(datum: RootDatum, text: str) -> MultTable:
    """Parse `<weight-literal> <weight-literal> <integer>` lines."""
    entries: dict[tuple[Weight, Weight], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise UnsupportedInputError(
                f"line {lineno}: expected '<weight> <weight> <integer>', got {raw!r}")
        try:
            lam, gamma = datum.parse_weight(parts[0]), datum.parse_weight(parts[1])
        except ValueError as exc:
            raise UnsupportedInputError(f"line {lineno}: {exc}")
        try:
            count = int(parts[2])
        except ValueError:
            raise UnsupportedInputError(f"line {lineno}: bad multiplicity {parts[2]!r}")
        if count < 0:
            raise UnsupportedInputError(f"line {lineno}: negative multiplicity")
        if lam == gamma and count != 1:
            raise UnsupportedInputError(
                f"line {lineno}: diagonal multiplicities are always 1")
        entries[(lam, gamma)] = count
    return MultTable(entries, provenance="user-supplied")


def load_mult_table(datum: RootDatum, path: str) -> MultTable:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_mult_table(datum, handle.read())
