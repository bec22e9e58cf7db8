"""Reference implementations of the dot-orbit machinery, on Fractions.

These are the straightforward forms `superlink.weyl` replaced with integer
shifted coordinates: the dot reflection through `reflect`, the orbit as a
BFS closure of dot reflections, (anti-)dominance, stabilizer roots and the
anti-dominant representative through `pairing_coroot` on lam + rho0, and the
gamma summation set as the anti-dominant points of that orbit.  Tests
compare the library against them.
"""
from superlink import UnsupportedInputError, WeylElement, is_integral, pairing_coroot, reflect
from superlink.weyl import _closure, _resolve_sub, _runs, parabolic_positive_roots


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


def is_dominant(datum, lam):
    """No <lam + rho0, a^vee> is a negative integer, a an even positive root."""
    shifted = lam + datum.rho0
    for alpha in datum.even_positive:
        t = pairing_coroot(datum, shifted, alpha)
        if t.denominator == 1 and t < 0:
            return False
    return True


def stabilizer_roots(datum, lam):
    """The even positive roots a with <lam + rho0, a^vee> = 0."""
    if not is_integral(datum, lam):
        raise UnsupportedInputError("stabilizer roots are computed for integral weights")
    shifted = lam + datum.rho0
    return tuple(a for a in datum.even_positive
                 if pairing_coroot(datum, shifted, a) == 0)


def antidominant_rep(datum, lam, sub=None):
    """Sort lam + rho0 ascending in each type A window and by minus its
    absolute value in each type C window, ties by position."""
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
    return w.apply(mu) - datum.rho0, w
