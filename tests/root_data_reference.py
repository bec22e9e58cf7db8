"""Reference builders for the root data: each root a dense Fraction `Weight`,
built by Fraction arithmetic, with a Fraction norm deciding isotropy and
rho0, rho1 half sums of Weights.

The library builds the same roots as sparse integer vectors; the tests
compare every field of its data against these, root order included.  A
reference datum is a dict of RootDatum's field values in which each root is
the triple (weight, parity, isotropic); `fields` turns a library datum into
the same shape.

`bilinear`, `pairing_coroot`, `reflect` and `is_integral` are the Fraction
forms of the library's functions of those names, read off
`datum.form_signature` and `Root.weight` only, so a reference built on them
checks the library's integer frame without reading it.
"""
from __future__ import annotations

from dataclasses import fields as dataclass_fields
from fractions import Fraction

from superlink.root_data import Root, RootDatum
from superlink.weights import Weight


def fields(datum: RootDatum) -> dict:
    """The datum's field values, each root as (weight, parity, isotropic)."""
    def plain(value):
        if isinstance(value, tuple) and value and isinstance(value[0], Root):
            return tuple((r.weight, r.parity, r.isotropic) for r in value)
        return value
    return {f.name: plain(getattr(datum, f.name)) for f in dataclass_fields(datum)}


def bilinear(datum: RootDatum, lam, mu) -> Fraction:
    """The invariant form sum_i s_i lam_i mu_i, s the datum's form signature."""
    return sum((Fraction(s) * a * b for s, a, b in zip(datum.form_signature, lam, mu)),
               Fraction(0))


def pairing_coroot(datum: RootDatum, lam, alpha: Root) -> Fraction:
    """<lam, alpha^vee> = 2 (lam, alpha) / (alpha, alpha) for a non-isotropic root."""
    return 2 * bilinear(datum, lam, alpha.weight) / bilinear(datum, alpha.weight, alpha.weight)


def reflect(datum: RootDatum, alpha: Root, lam: Weight) -> Weight:
    """s_alpha(lam) = lam - <lam, alpha^vee> alpha."""
    return lam - alpha.weight.scale(pairing_coroot(datum, lam, alpha))


def is_integral(datum: RootDatum, lam: Weight) -> bool:
    """<lam, alpha^vee> is an integer for every even positive root alpha."""
    datum.check_dim(lam)
    return all(pairing_coroot(datum, lam, a).denominator == 1 for a in datum.even_positive)


def describe(ref: dict) -> str:
    """RootDatum.describe() of a reference datum."""
    params = ref["params"]
    if ref["family"] == "gl":
        return f"gl({params[0]}|{params[1]})"
    if ref["family"] == "osp2":
        return f"osp(2|{2 * params[0]})"
    if ref["family"] == "p":
        return f"p({params[0]})"
    if ref["family"] == "osp32":
        return "osp(3|2)"
    return "x".join(f"{k}{s if k == 'C' else s - 1}" for k, _, s in ref["blocks"])


def _basis(dim: int, entries: dict[int, Fraction | int]) -> Weight:
    coords = [Fraction(0)] * dim
    for i, v in entries.items():
        coords[i] = Fraction(v)
    return Weight(coords)


def _half_sum(dim: int, roots) -> Weight:
    total = Weight([0] * dim)
    for w, _, _ in roots:
        total = total + w
    return total.scale(Fraction(1, 2))


def _finish(family, params, dim, signature, simple, even_pos, odd_pos, odd_neg,
            blocks, seps, rho0=None) -> dict:
    signature = tuple(Fraction(s) for s in signature)

    def mk(w: Weight, parity: str):
        return (w, parity, sum((s * a * a for s, a in zip(signature, w)), Fraction(0)) == 0)

    even_roots = tuple(mk(w, "even") for w in even_pos)
    odd_roots = tuple(mk(w, "odd") for w in tuple(odd_pos) + tuple(odd_neg))
    odd_positive = tuple(mk(w, "odd") for w in odd_pos)
    rho0 = rho0 if rho0 is not None else _half_sum(dim, even_roots)
    rho1 = _half_sum(dim, odd_positive)
    return dict(
        family=family, params=tuple(params), dim=dim, form_signature=signature,
        simple_even=tuple(mk(w, "even") for w in simple), even_positive=even_roots,
        odd_roots=odd_roots, odd_positive=odd_positive,
        isotropic_roots=tuple(r for r in odd_roots if r[2]),
        rho0=rho0, rho1=rho1, rho=rho0 - rho1,
        blocks=tuple(blocks), literal_seps=tuple(seps))


def build_gl(m: int, n: int) -> dict:
    dim = m + n
    e = lambda i: _basis(dim, {i: 1})
    even_pos = [e(i) - e(j) for i in range(m) for j in range(i + 1, m)]
    even_pos += [e(i) - e(j) for i in range(m, dim) for j in range(i + 1, dim)]
    simple = [e(i) - e(i + 1) for i in range(m - 1)]
    simple += [e(i) - e(i + 1) for i in range(m, dim - 1)]
    odd_pos = [e(i) - e(j) for i in range(m) for j in range(m, dim)]
    odd_neg = [-w for w in odd_pos]
    return _finish("gl", (m, n), dim, [1] * m + [-1] * n, simple, even_pos, odd_pos,
                   odd_neg, [("A", 0, m), ("A", m, n)], [(m, "|")])


def build_osp2(n: int) -> dict:
    dim = n + 1
    d = lambda i: _basis(dim, {i + 1: 1})
    eps = _basis(dim, {0: 1})
    even_pos = []
    for i in range(n):
        for j in range(i + 1, n):
            even_pos += [d(i) - d(j), d(i) + d(j)]
        even_pos.append(d(i).scale(2))
    simple = [d(i) - d(i + 1) for i in range(n - 1)] + [d(n - 1).scale(2)]
    odd_pos = [eps - d(i) for i in range(n)] + [eps + d(i) for i in range(n)]
    odd_neg = [-w for w in odd_pos]
    return _finish("osp2", (n,), dim, [1] + [-1] * n, simple, even_pos, odd_pos,
                   odd_neg, [("A", 0, 1), ("C", 1, n)], [(1, ";")])


def build_p(n: int) -> dict:
    dim = n
    e = lambda i: _basis(dim, {i: 1})
    even_pos = [e(i) - e(j) for i in range(n) for j in range(i + 1, n)]
    simple = [e(i) - e(i + 1) for i in range(n - 1)]
    odd_pos = [e(i) + e(j) for i in range(n) for j in range(i, n)]
    odd_neg = [-(e(i) + e(j)) for i in range(n) for j in range(i + 1, n)]
    rho0 = Weight([n - 1 - i for i in range(n)])
    return _finish("p", (n,), dim, [1] * n, simple, even_pos, odd_pos, odd_neg,
                   [("A", 0, n)], [], rho0=rho0)


def build_osp32() -> dict:
    d = _basis(2, {0: 1})
    e = _basis(2, {1: 1})
    even_pos = [d.scale(2), e]
    odd_pos = [d + e, d - e, d]
    return _finish("osp32", (), 2, [-1, 1], list(even_pos), even_pos, odd_pos,
                   [-w for w in odd_pos], [("C", 0, 1), ("C", 1, 1)], [])


def build_reductive(factors: list[tuple[str, int]]) -> dict:
    """Product of type A_k (on k+1 coordinates) and type C_k factors, given
    as (kind, rank) pairs."""
    even_pos, simple, blocks, seps, signature = [], [], [], [], []
    dim = sum(rank + 1 if kind == "A" else rank for kind, rank in factors)
    e = lambda i: _basis(dim, {i: 1})
    start = 0
    for kind, rank in factors:
        size = rank + 1 if kind == "A" else rank
        idx = range(start, start + size)
        if kind == "A":
            even_pos += [e(i) - e(j) for i in idx for j in idx if i < j]
            simple += [e(i) - e(i + 1) for i in idx if i + 1 in idx]
        else:
            for i in idx:
                for j in idx:
                    if i < j:
                        even_pos += [e(i) - e(j), e(i) + e(j)]
                even_pos.append(e(i).scale(2))
            simple += [e(i) - e(i + 1) for i in idx if i + 1 in idx]
            simple.append(e(start + size - 1).scale(2))
        blocks.append((kind, start, size))
        if start:
            seps.append((start, "|"))
        signature += [1] * size
        start += size
    return _finish("reductive", tuple(r for _, r in factors), dim, signature,
                   simple, even_pos, [], [], blocks, seps)
