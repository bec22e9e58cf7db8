"""Reference implementations of the dot-orbit machinery, on Fractions.

These are the straightforward forms `superlink.weyl` replaced with integer
shifted coordinates: the dot reflection through `reflect`, the orbit as a
BFS closure of dot reflections, (anti-)dominance, stabilizer roots and the
anti-dominant representative through `pairing_coroot` on lam + rho0 (with
`reflect`, `pairing_coroot` and `is_integral` the Fraction forms of
`root_data_reference`, not the library's), and the
gamma summation set as the anti-dominant points of that orbit.  The
parabolic positive roots come from expanding every even positive root over
Pi_0 by Gaussian elimination, where the library reads them off the
`_runs` windows, a reflection element from reflecting the unit weights,
where the library reads it off the integer root and coroot, and a
subgroup's elements from a BFS closure of its reflection elements.  The
dominant partner of a character groups coordinates joined by supported
chain roots, where the library reads the groups off the `_runs` windows.
A subset of Pi_0 resolves to its letters and its connected windows here
too, by equality and by joining the coordinates its roots share, so a
fault in the library's `_parabolic` or `_runs` is not copied.  Tests compare
the library against them.
"""
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from root_data_reference import is_integral, pairing_coroot, reflect
from superlink import UnsupportedInputError, Weight, WeylElement, upsilon_of
from superlink.weyl import _closure


@lru_cache(maxsize=None)
def simple_expansions(datum):
    """Expand every even positive root over Pi_0 (exact Gaussian elimination)."""
    simples = [r.weight for r in datum.simple_even]
    k = len(simples)
    out = {}
    for root in datum.even_positive:
        # solve sum_j x_j simples[j] = root
        rows = [[simples[j][i] for j in range(k)] + [root.weight[i]]
                for i in range(datum.dim)]
        piv_cols = []
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


def _letters(datum, sub):
    """The Pi_0 indices of sub's roots, matched by equality (all of Pi_0 for
    None); a root outside Pi_0 is refused."""
    simple = list(datum.simple_even)
    if sub is None:
        return list(range(len(simple)))
    if any(r not in simple for r in sub):
        raise UnsupportedInputError("parabolic subgroups are generated by subsets of Pi_0")
    return [simple.index(r) for r in sub]


def _resolve(datum, sub):
    """sub as simple even roots."""
    return [datum.simple_even[i] for i in _letters(datum, sub)]


def _windows(datum, sub):
    """The connected windows of sub: (kind, sorted coordinates) for each
    class of the coordinates sub's roots touch, two coordinates joined when
    one root touches both.  A window is type A when each of its roots is some
    e_i - e_j, and type C otherwise."""
    classes = []  # (coordinates, roots) per class
    for r in sub:
        coords = {i for i, c in enumerate(r.weight) if c != 0}
        hit = [k for k in classes if k[0] & coords]
        classes = [k for k in classes if not k[0] & coords]
        classes.append((coords.union(*(k[0] for k in hit)),
                        [r, *chain.from_iterable(k[1] for k in hit)]))
    return [("A" if all(sorted(c for c in r.weight if c) == [-1, 1] for r in roots) else "C",
             sorted(coords)) for coords, roots in classes]


def parabolic_positive_roots(datum, sub=None):
    """Even positive roots lying in the span of the given simple subset."""
    chosen = set(_letters(datum, sub))
    expansions = simple_expansions(datum)
    return tuple(root for root in datum.even_positive
                 if all(c == 0 or j in chosen for j, c in enumerate(expansions[root.weight])))


def reflection_element(datum, alpha):
    """s_alpha as a signed permutation: the images of the unit weights
    under the Fraction `reflect`."""
    images = []
    for i in range(datum.dim):
        image = reflect(datum, alpha, Weight([1 if k == i else 0 for k in range(datum.dim)]))
        nonzero = [(j, c) for j, c in enumerate(image) if c != 0]
        assert len(nonzero) == 1 and abs(nonzero[0][1]) == 1, alpha
        j, c = nonzero[0]
        images.append((j + 1) if c > 0 else -(j + 1))
    return WeylElement(tuple(images))


def enumerate_subgroup(datum, generators):
    """All elements of the subgroup generated by the given reflections,
    sorted by images."""
    gens = [reflection_element(datum, r) for r in generators]
    levels = _closure(WeylElement.identity(datum.dim), lambda w: (g.compose(w) for g in gens))
    return sorted(chain.from_iterable(levels), key=lambda w: w.images)


def dot_reflection(datum, alpha, lam):
    """s_alpha . lam = s_alpha(lam + rho0) - rho0."""
    return reflect(datum, alpha, lam + datum.rho0) - datum.rho0


def orbit_dot(datum, lam, sub=None):
    """The sub dot orbit of lam, by BFS over dot reflections."""
    sub = _resolve(datum, sub)
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
    sub = _resolve(datum, sub)
    mu = lam + datum.rho0
    images = list(range(1, datum.dim + 1))
    for kind, coords in _windows(datum, sub):
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


def dominant_partner(datum, zeta):
    """A dominant integral nu with upsilon_of(nu) = Pi_zeta: in each block
    the (nu + rho0)-values are constant on groups of consecutive coordinates
    joined by supported chain roots and strictly decrease across groups; a
    type C block ends at zero exactly when its sign root is supported."""
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
        groups = []
        for i in coords:
            if groups and (i - 1) in joined and groups[-1][-1] == i - 1:
                groups[-1].append(i)
            else:
                groups.append([i])
        frac = datum.rho0[start] % 1
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
