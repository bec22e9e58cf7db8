"""Reference implementations of the dot-orbit machinery, on Fractions.

These are the straightforward forms `superlink.weyl` replaced with integer
shifted coordinates: the dot reflection through `reflect`, the orbit as a
BFS closure of dot reflections, anti-dominance through `pairing_coroot`,
and the gamma summation set as the anti-dominant points of that orbit.
Tests compare the library against them.
"""
from superlink import pairing_coroot, reflect
from superlink.weyl import _closure, _resolve_sub, parabolic_positive_roots


def dot_reflection(datum, alpha, lam):
    """s_alpha . lam = s_alpha(lam + rho0) - rho0."""
    return reflect(datum, alpha, lam + datum.rho0) - datum.rho0


def orbit_dot(datum, lam, sub=None):
    """The sub dot orbit of lam, by BFS over dot reflections."""
    sub = _resolve_sub(datum, sub)
    levels = _closure(lam, lambda mu: (dot_reflection(datum, alpha, mu) for alpha in sub))
    return frozenset(mu for level in levels for mu in level)


def is_antidominant(datum, lam, sub=None):
    """No <lam + rho0, a^vee> is a positive integer, a a sub-positive root."""
    shifted = lam + datum.rho0
    for alpha in parabolic_positive_roots(datum, sub):
        t = pairing_coroot(datum, shifted, alpha)
        if t.denominator == 1 and t > 0:
            return False
    return True


def gamma_summation_set(datum, mu, zeta):
    """The W_zeta-anti-dominant points of mu's W_zeta dot orbit, sorted."""
    sub = zeta.support
    return sorted(g for g in orbit_dot(datum, mu, sub) if is_antidominant(datum, g, sub))
