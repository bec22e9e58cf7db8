"""Whittaker characters, canonical simple parameters and singular-support sets.

A character zeta of the even nilradical is identified with its support
Pi_zeta, the set of simple even roots on which it is nonzero.  The
classification data of a simple Whittaker module is the pair (zeta, rep)
where rep is the canonical W_zeta-anti-dominant representative of the
weight's W_zeta dot orbit: two integral weights parameterize the same
simple module for a fixed zeta exactly when they share this
representative.

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
from typing import Sequence

from .errors import SuperlinkError, UnsupportedInputError
from .root_data import Root, RootDatum, _integer_frame, is_integral
from .weights import Weight
from .weyl import (WeylElement, _antidominant_rep, _parabolic, _shifted, is_antidominant,
                   is_dominant)


@dataclass(frozen=True)
class WhittakerCharacter:
    """zeta, recorded by its support inside Pi_0."""

    support: tuple[Root, ...]

    @staticmethod
    def make(datum: RootDatum, support: Sequence[Root]) -> "WhittakerCharacter":
        support = set(support)
        if not support <= set(datum.simple_even):
            raise UnsupportedInputError("zeta support must lie inside Pi_0")
        return WhittakerCharacter(tuple(r for r in datum.simple_even if r in support))

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


def classify_simple(datum: RootDatum, lam: Weight,
                    zeta: WhittakerCharacter) -> SimpleWhittakerParam:
    """Canonical (zeta, rep) data; constant exactly on W_zeta dot orbits."""
    if not is_integral(datum, lam):
        raise UnsupportedInputError("simple-parameter classification needs an integral weight")
    rep, w = _antidominant_rep(datum, lam, zeta.support)
    return SimpleWhittakerParam(datum.family, datum.params, zeta, rep, w)


def upsilon_of(datum: RootDatum, nu: Weight) -> tuple[Root, ...]:
    """Simple roots singular at the dominant integral weight nu."""
    if not is_integral(datum, nu):
        raise UnsupportedInputError("upsilon is defined for integral weights")
    if not is_dominant(datum, nu):
        raise UnsupportedInputError("upsilon is defined for dominant weights")
    _, n = _shifted(datum, nu)
    frame = _integer_frame(datum)
    return tuple(a for a, j in zip(datum.simple_even, frame.simple)
                 if not sum(c * n[i] for i, c in frame.coroots[j]))


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
    windows = _parabolic(datum, zeta.support).windows
    target = list(datum.rho0.coords)  # overwritten block by block
    for kind, start, size in datum.blocks:
        block = range(start, start + size)
        inside = [(k, coords) for k, coords in windows if coords[0] in block]
        # the support's windows in the block, and each other coordinate alone
        covered = {i for _, coords in inside for i in coords}
        groups = sorted([coords for _, coords in inside]
                        + [[i] for i in block if i not in covered])
        frac = datum.rho0[start] % 1
        if kind == "A":
            base = -frac if frac else Fraction(0)
        else:  # a type C window holds the sign root
            signed = any(k == "C" for k, _ in inside)
            base = Fraction(0) if signed else (frac if frac else Fraction(1))
        # strictly decreasing left to right, last group at `base`
        for g, group in enumerate(groups):
            for i in group:
                target[i] = base + (len(groups) - 1 - g)
    nu = Weight(target) - datum.rho0
    if upsilon_of(datum, nu) != zeta.support:
        raise SuperlinkError("dominant partner construction failed")
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
