"""Typicality, block labels and linkage decisions.

A block label is a canonical invariant deciding the family's linkage
relation on integral weights:

* gl(m|n): write lam + rho as (a_1..a_m | b_1..b_n), cancel the maximal
  multiset matching between {a_i} and {-b_j}, and keep (sorted surviving
  a's, sorted surviving -b's, number cancelled).  Labels agree exactly when
  the weights are linked (W dot moves plus integer shifts along isotropic
  roots orthogonal to lam + rho).
* osp(2|2n): on lam + rho = (x; d_1..d_n), atypical means |x| equals some
  |d_i|; the label keeps the multiset of |d_i| (with one matched entry
  removed when atypical), the exact x when typical or its fractional part
  when atypical, and the atypicality bit.
* p(n): after removing the common fractional shift c (all coordinates of
  an integral p(n) weight share it), the label is j = number of odd
  entries of lam + rho0, plus c itself.  Equal labels guarantee linkage;
  unequal labels only mean no link is known, since the converse is open.
* osp(3|2): the central-character label on lam + rho = (a, b): the ordered
  pair (|a|, |b|) when typical, the line residue |a| mod 1 when b = +-a.
  The two coordinates are never swapped: the Weyl group only flips signs.
* reductive: the anti-dominant dot-orbit representative; labels agree
  exactly when the weights share a dot orbit.

For osp(3|2) the W-moves that preserve the label are the rho-shifted
reflections lam -> s(lam + rho) - rho, not the rho0-dot action: rho1 is not
W-invariant there, and the dot action genuinely changes the central
character.  For every other supported family the two actions coincide.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import UnsupportedInputError
from .root_data import RootDatum, is_integral
from .weights import Weight, _fractional, format_rational
from .weyl import antidominant_rep, reflect


class LinkStatus(Enum):
    LINKED = "linked"
    NOT_LINKED = "not-linked"
    LINKED_SUFFICIENT_ONLY = "linked-sufficient-only"
    NO_LINK_KNOWN = "no-link-known"


@dataclass(frozen=True)
class Typicality:
    kind: str  # "typical" | "atypical" | "not-applicable"
    degree: int = 0


@dataclass(frozen=True)
class BlockLabel:
    family: str
    payload: tuple

    def to_json(self) -> dict:
        if self.family == "gl":
            core_a, core_b, k = self.payload
            return {"family": "gl",
                    "coreA": [format_rational(c) for c in core_a],
                    "coreB": [format_rational(c) for c in core_b],
                    "atyp": k}
        if self.family == "osp2":
            core, eps, atyp = self.payload
            return {"family": "osp2",
                    "core": [format_rational(c) for c in core],
                    "eps": format_rational(eps),
                    "atyp": atyp}
        if self.family == "p":
            j, shift = self.payload
            out = {"family": "p", "j": j}
            if shift:
                out["shift"] = format_rational(shift)
            return out
        if self.family == "osp32":
            atyp, data = self.payload
            if atyp:
                return {"family": "osp32", "atyp": 1, "line": format_rational(data)}
            return {"family": "osp32", "atyp": 0,
                    "pair": [format_rational(c) for c in data]}
        rep = self.payload
        return {"family": "reductive", "rep": [format_rational(c) for c in rep]}

    def json_str(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))


def typicality(datum: RootDatum, lam: Weight) -> Typicality:
    """Typical/atypical with exact atypicality degree.

    The degree is the largest number of mutually orthogonal isotropic roots
    annihilating lam + rho.  Distinct isotropic roots of these families are
    orthogonal exactly when their two-coordinate supports are disjoint, so
    the degree has a closed form.  gl(m|n): on lam + rho = (a | b) it is
    the maximal matching a_i = -b_j, the cancellation count of the block
    label.  osp(2|2n) and osp(3|2): every isotropic root meets the leading
    coordinate, so the degree is 1 when |x| equals some |d_i| (|a| = |b|
    for osp(3|2)) and 0 otherwise.  Reductive data are typical, and p(n)
    carries no such notion here and reports not-applicable.  Weights need
    not be integral.
    """
    datum.check_dim(lam)
    if datum.family == "p":
        return Typicality("not-applicable")
    mu = (lam + datum.rho).coords
    degree = 0
    if datum.family == "gl":
        m = datum.params[0]
        degree = _cancel(mu[:m], [-c for c in mu[m:]])[2]
    elif datum.family in ("osp2", "osp32"):
        degree = int(abs(mu[0]) in {abs(c) for c in mu[1:]})
    return Typicality("atypical", degree) if degree else Typicality("typical")


def _require_integral(datum: RootDatum, lam: Weight) -> None:
    if not is_integral(datum, lam):
        raise UnsupportedInputError("block labels are defined for integral weights")


def _cancel(a_vals, b_vals):
    """Maximal multiset cancellation; returns (survivors_a, survivors_b, count)."""
    count_a, count_b = Counter(a_vals), Counter(b_vals)
    k = sum(min(count_a[v], count_b[v]) for v in count_a)
    surv_a, surv_b = count_a.copy(), count_b.copy()
    for v in count_a:
        m = min(count_a[v], count_b[v])
        surv_a[v] -= m
        surv_b[v] -= m
    return (tuple(sorted(surv_a.elements())), tuple(sorted(surv_b.elements())), k)


def block_label(datum: RootDatum, lam: Weight) -> BlockLabel:
    """The family's canonical linkage invariant of an integral weight."""
    datum.check_dim(lam)
    if datum.family == "gl":
        _require_integral(datum, lam)
        m = datum.params[0]
        mu = lam + datum.rho
        a = mu.coords[:m]
        neg_b = tuple(-c for c in mu.coords[m:])
        return BlockLabel("gl", _cancel(a, neg_b))
    if datum.family == "osp2":
        _require_integral(datum, lam)
        mu = lam + datum.rho
        x, d = mu[0], [abs(c) for c in mu.coords[1:]]
        if abs(x) in d:
            d.remove(abs(x))
            return BlockLabel("osp2", (tuple(sorted(d)), _fractional(x), 1))
        return BlockLabel("osp2", (tuple(sorted(d)), x, 0))
    if datum.family == "p":
        _require_integral(datum, lam)
        shift = _fractional(lam[0])
        omega = Weight([1] * datum.dim)
        normalized = lam - omega.scale(shift)
        if any(c.denominator != 1 for c in normalized):
            raise UnsupportedInputError(
                "p(n) labels need coordinates in a common coset c + Z")
        mu = normalized + datum.rho0
        j = sum(1 for c in mu if c.numerator % 2 != 0)
        return BlockLabel("p", (j, shift))
    if datum.family == "osp32":
        return chi_label_osp32(datum, lam)
    if datum.family == "reductive":
        rep, _ = antidominant_rep(datum, lam)
        return BlockLabel("reductive", rep.coords)
    raise UnsupportedInputError(f"block labels are not defined for {datum.family!r}")


def chi_label_osp32(datum: RootDatum, lam: Weight) -> BlockLabel:
    """Central-character label for osp(3|2) integral weights.

    On lam + rho = (a, b): typical weights keep the ordered pair
    (|a|, |b|); atypical ones (b = +-a) collapse to the line residue
    |a| mod 1, since integer steps along the annihilating isotropic root
    and sign flips sweep out the whole line.
    """
    if datum.family != "osp32":
        raise UnsupportedInputError("chi labels in this form exist only for osp(3|2)")
    _require_integral(datum, lam)
    a, b = (lam + datum.rho).coords
    if abs(a) == abs(b):
        return BlockLabel("osp32", (1, _fractional(abs(a))))
    return BlockLabel("osp32", (0, (abs(a), abs(b))))


def linkage_reflection(datum: RootDatum, alpha, lam: Weight) -> Weight:
    """The label-preserving W-move: dot action, except rho-shifted for osp(3|2)."""
    shift = datum.rho if datum.family == "osp32" else datum.rho0
    return reflect(datum, alpha, lam + shift) - shift


def same_block(datum: RootDatum, lam: Weight, mu: Weight) -> LinkStatus:
    """Block-linkage decision between two integral weights.

    gl / osp(2|2n) / reductive: equal labels are equivalent to linkage.
    p(n): equal labels prove linkage, unequal ones decide nothing.
    osp(3|2): decided only inside the supported X(nu) grid, where label
    equality is equivalent to sharing a central character.
    """
    datum.check_dim(lam)
    datum.check_dim(mu)
    _require_integral(datum, lam)
    _require_integral(datum, mu)
    if lam == mu:
        return LinkStatus.LINKED
    if datum.family == "osp32":
        from .whittaker import in_X  # deferred: whittaker sits above blocks
        nu = -datum.rho0
        if not (in_X(datum, nu, lam) and in_X(datum, nu, mu)):
            raise UnsupportedInputError(
                "osp(3|2) block membership is decided only inside the X(nu) grid")
        equal = chi_label_osp32(datum, lam) == chi_label_osp32(datum, mu)
        return LinkStatus.LINKED if equal else LinkStatus.NOT_LINKED
    equal = block_label(datum, lam) == block_label(datum, mu)
    if datum.family == "p":
        return LinkStatus.LINKED_SUFFICIENT_ONLY if equal else LinkStatus.NO_LINK_KNOWN
    return LinkStatus.LINKED if equal else LinkStatus.NOT_LINKED
