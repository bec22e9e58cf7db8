"""Reference implementation of `superlink.blocks.typicality`, on Fractions.

`typicality_fractions` reads the atypicality degree off lam + rho directly:
for gl(m|n) on (a | b), the maximal multiset matching a_i = -b_j; for
osp(2|2n) and osp(3|2), 1 when the leading coordinate's absolute value
equals that of some later one.  The library reads the same degree off the
integer block-label key instead.  Tests compare the two.
"""
from superlink.blocks import Typicality


def typicality_fractions(datum, lam):
    datum.check_dim(lam)
    if datum.family == "p":
        return Typicality("not-applicable")
    mu = (lam + datum.rho).coords
    degree = 0
    if datum.family == "gl":
        m = datum.params[0]
        rest = [-c for c in mu[m:]]
        for v in mu[:m]:
            if v in rest:
                rest.remove(v)
                degree += 1
    elif datum.family in ("osp2", "osp32"):
        degree = int(abs(mu[0]) in {abs(c) for c in mu[1:]})
    return Typicality("atypical", degree) if degree else Typicality("typical")
