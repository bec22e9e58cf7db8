"""Whittaker characters, canonical simple parameters and singular-support sets.

A character zeta of the even nilradical is identified with its support
Pi_zeta, the set of simple even roots on which it is nonzero; optional
scalar values are carried as opaque metadata.  The classification data of a
simple Whittaker module is the pair (zeta, rep) where rep is the canonical
W_zeta-anti-dominant representative of the weight's W_zeta dot orbit: two
integral weights parameterize the same simple module for a fixed zeta
exactly when they share this representative.

For a dominant integral weight nu, upsilon_of returns the simple roots
singular at nu; X0(nu) consists of the nu-integral weights that are
W_nu-anti-dominant.  X(nu) agrees with X0(nu) for the type-I families and
the reductive ones; for osp(3|2) it is the hard-coded grid
{lam : lam + rho = a d + b e, a, b in -1/2 - Z_{>=0}} attached to the unique
nu with full stabilizer.  Other combinations are refused explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import UnsupportedInputError
from .root_data import Root, RootDatum, is_integral, pairing_coroot
from .weights import Weight, _fractional
from .weyl import WeylElement, antidominant_rep, is_antidominant, is_dominant


@dataclass(frozen=True)
class WhittakerCharacter:
    """zeta, recorded by its support inside Pi_0 (values are metadata only)."""

    support: tuple[Root, ...]
    values: tuple[tuple[Root, Fraction], ...] = ()

    @staticmethod
    def make(datum: RootDatum, support: Sequence[Root],
             values: Mapping[Root, Fraction] | None = None) -> "WhittakerCharacter":
        allowed = list(datum.simple_even)
        support = tuple(sorted(set(support), key=allowed.index))
        for r in support:
            if r not in allowed:
                raise UnsupportedInputError("zeta support must lie inside Pi_0")
        items: tuple[tuple[Root, Fraction], ...] = ()
        if values:
            for r, v in values.items():
                if r not in support:
                    raise UnsupportedInputError("zeta value attached outside the support")
                if Fraction(v) == 0:
                    raise UnsupportedInputError("zeta values must be nonzero")
            items = tuple(sorted(((r, Fraction(v)) for r, v in values.items()),
                                 key=lambda rv: allowed.index(rv[0])))
        return WhittakerCharacter(support, items)

    @staticmethod
    def from_indices(datum: RootDatum, spec) -> "WhittakerCharacter":
        """Build zeta from 1-based Pi_0 indices, or 'all' / 'none'."""
        if spec in ("all", "full"):
            return WhittakerCharacter.make(datum, datum.simple_even)
        if spec in ("none", "0", "", None):
            return WhittakerCharacter.make(datum, ())
        if isinstance(spec, str):
            spec = [int(tok) for tok in spec.replace(",", " ").split()]
        roots = []
        for i in spec:
            if not 1 <= int(i) <= len(datum.simple_even):
                raise UnsupportedInputError(
                    f"zeta index {i} out of range 1..{len(datum.simple_even)}")
            roots.append(datum.simple_even[int(i) - 1])
        return WhittakerCharacter.make(datum, roots)


@dataclass(frozen=True)
class SimpleWhittakerParam:
    """Canonical parameter of a simple Whittaker module: (zeta, rep)."""

    family: str
    params: tuple[int, ...]
    zeta: WhittakerCharacter
    rep: Weight
    witness: WeylElement = field(compare=False)


def weyl_subgroup_of(datum: RootDatum, zeta: WhittakerCharacter) -> tuple[Root, ...]:
    """The parabolic descriptor of W_zeta: the support itself."""
    return zeta.support


def is_nonsingular(datum: RootDatum, zeta: WhittakerCharacter) -> bool:
    return set(zeta.support) == set(datum.simple_even)


def classify_simple(datum: RootDatum, lam: Weight,
                    zeta: WhittakerCharacter) -> SimpleWhittakerParam:
    """Canonical (zeta, rep) data; constant exactly on W_zeta dot orbits."""
    if not is_integral(datum, lam):
        raise UnsupportedInputError("simple-parameter classification needs an integral weight")
    rep, w = antidominant_rep(datum, lam, zeta.support)
    return SimpleWhittakerParam(datum.family, datum.params, zeta, rep, w)


def upsilon_of(datum: RootDatum, nu: Weight) -> tuple[Root, ...]:
    """Simple roots singular at the dominant integral weight nu."""
    if not is_integral(datum, nu):
        raise UnsupportedInputError("upsilon is defined for integral weights")
    if not is_dominant(datum, nu):
        raise UnsupportedInputError("upsilon is defined for dominant weights")
    shifted = nu + datum.rho0
    return tuple(a for a in datum.simple_even
                 if pairing_coroot(datum, shifted, a) == 0)


def dominant_partner(datum: RootDatum, zeta: WhittakerCharacter) -> Weight:
    """A dominant integral nu with upsilon_of(nu) = Pi_zeta, built
    deterministically.

    Within each coordinate block the (nu + rho0)-values are constant on
    Pi_zeta-connected groups and strictly decrease across groups; type C
    windows stay nonnegative and end at zero exactly when the sign root is
    in the support.  Values sit in the integrality class of rho0 and are
    chosen with minimal magnitude (anchor 0, or -1/2 for half-integer type
    A classes).
    """
    support = set(zeta.support)
    target = list(datum.rho0.coords)  # overwritten block by block
    for kind, start, size in datum.blocks:
        coords = list(range(start, start + size))
        # group consecutive coordinates joined by supported chain roots
        joined = set()
        for r in datum.simple_even:
            if r in support:
                sup = [i for i, c in enumerate(r.weight) if c != 0]
                if len(sup) == 2 and sup[0] in coords:
                    joined.add(sup[0])
        groups: list[list[int]] = []
        for i in coords:
            if groups and (i - 1) in joined and groups[-1][-1] == i - 1:
                groups[-1].append(i)
            else:
                groups.append([i])
        frac = _fractional(datum.rho0[start])
        if kind == "A":
            anchor = -frac if frac else Fraction(0)
            for g, group in enumerate(groups):
                value = anchor + (len(groups) - 1 - g)
                for i in group:
                    target[i] = value
        else:
            sign_root_supported = any(
                r in support and len([c for c in r.weight if c != 0]) == 1
                and r.weight[coords[-1]] != 0
                for r in datum.simple_even)
            base = Fraction(0) if sign_root_supported else (frac if frac else Fraction(1))
            # strictly decreasing left to right, last group at `base`
            for g, group in enumerate(groups):
                value = base + (len(groups) - 1 - g)
                for i in group:
                    target[i] = value
    nu = Weight(target) - datum.rho0
    assert upsilon_of(datum, nu) == zeta.support, "dominant partner construction failed"
    return nu


def in_X0(datum: RootDatum, nu: Weight, lam: Weight) -> bool:
    """lam lies in nu + (integral weights) and is W_nu-anti-dominant."""
    upsilon = upsilon_of(datum, nu)  # validates nu
    if not is_integral(datum, lam - nu):
        return False
    return is_antidominant(datum, lam, upsilon)


def _osp32_fixed_nu(datum: RootDatum) -> Weight:
    # the unique weight with full dot stabilizer: nu + rho0 = 0
    return -datum.rho0


def in_X(datum: RootDatum, nu: Weight, lam: Weight) -> bool:
    """Membership in X(nu).

    Type-I families and reductive ones: identical to X0(nu).  osp(3|2):
    only the full-stabilizer nu is supported, where X(nu) is the closed
    grid lam + rho = a d + b e with a, b in -1/2 - Z_{>=0}.  Anything else
    is refused rather than guessed.
    """
    if datum.family in ("gl", "osp2", "p", "reductive"):
        return in_X0(datum, nu, lam)
    if datum.family == "osp32":
        if nu != _osp32_fixed_nu(datum):
            raise UnsupportedInputError(
                "for osp(3|2) only the full-stabilizer nu = -rho0 is supported")
        a, b = (lam + datum.rho).coords
        def in_neg_half(x: Fraction) -> bool:
            return (x + Fraction(1, 2)).denominator == 1 and x <= Fraction(-1, 2)
        return in_neg_half(a) and in_neg_half(b)
    raise UnsupportedInputError(f"X(nu) is not available for family {datum.family!r}")
