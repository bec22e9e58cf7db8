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
* reductive: the anti-dominant dot-orbit representative (weyl's window
  sort); labels agree exactly when the weights share a dot orbit.

For osp(3|2) the W-moves that preserve the label are the rho-shifted
reflections lam -> s(lam + rho) - rho, not the rho0-dot action: rho1 is not
W-invariant there, and the dot action genuinely changes the central
character.  For every other supported family the two actions coincide.

All five families' labels are computed on the integer vector D (lam +
rho) over a common denominator D as integer keys (see _label), which the
box oracle also uses to label a whole box on its integer lattice, building
each distinct label's payload once (see _payload), and from which
typicality reads the atypicality degree.

block_label refuses a weight of the wrong length or a non-integral one,
then runs _block_label, one unchecked body for every family.  same_block
checks each weight once and compares two _block_labels: two integrality
tests a query; for osp(3|2) only inside the X(nu) grid of _in_osp32_grid,
which whittaker's in_X shares: blocks sits below whittaker.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import UnsupportedInputError
from .root_data import RootDatum, _integer_frame, is_integral
from .weights import Weight, format_rational
from .weyl import _parabolic, _sort_windows


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
                    "coreA": list(map(format_rational, core_a)),
                    "coreB": list(map(format_rational, core_b)),
                    "atyp": k}
        if self.family == "osp2":
            core, eps, atyp = self.payload
            return {"family": "osp2",
                    "core": list(map(format_rational, core)),
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
                    "pair": list(map(format_rational, data))}
        rep = self.payload
        return {"family": "reductive", "rep": list(map(format_rational, rep))}

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
    for osp(3|2)) and 0 otherwise.  All three are read off the block
    label's integer key (see _label).  Reductive data are typical, and p(n)
    carries no such notion here and reports not-applicable.  Weights need
    not be integral.
    """
    datum.check_dim(lam)
    if datum.family == "p":
        return Typicality("not-applicable")
    degree = 0
    if datum.family != "reductive":  # the label key's atypicality entry
        key = _label(datum, *_integer_frame(datum).shifted(lam, _label_shift(datum)))
        degree = key[0] if datum.family == "osp32" else key[2]
    return Typicality("atypical", degree) if degree else Typicality("typical")


def _require_integral(datum: RootDatum, lam: Weight) -> None:
    if not is_integral(datum, lam):
        raise UnsupportedInputError("block labels are defined for integral weights")


def _cancel(a_vals, b_vals):
    """Maximal multiset cancellation; returns (survivors_a, survivors_b, count)."""
    surv_a, surv_b = [], list(b_vals)
    for v in a_vals:
        if v in surv_b:
            surv_b.remove(v)
        else:
            surv_a.append(v)
    return (tuple(sorted(surv_a)), tuple(sorted(surv_b)), len(a_vals) - len(surv_a))


def _label_shift(datum: RootDatum) -> tuple[int, ...]:
    """What the label body adds to lam, scaled by the denominator D of
    root_data's frame: D rho, or D rho0 for p(n)."""
    frame = _integer_frame(datum)
    return frame.rho0 if datum.family == "p" else frame.rho


def block_label(datum: RootDatum, lam: Weight) -> BlockLabel:
    """The family's canonical linkage invariant of an integral weight."""
    if datum.family != "reductive":
        _require_integral(datum, lam)
    elif not is_integral(datum, lam):  # with antidominant_rep's refusal text
        raise UnsupportedInputError("anti-dominant representatives need an integral weight")
    return _block_label(datum, lam)


def _block_label(datum: RootDatum, lam: Weight) -> BlockLabel:
    """`block_label` for a weight its caller has already refused unless
    integral and of the datum's dimension: the payload of its _label key,
    one body for every family; it checks nothing."""
    D, mu = _integer_frame(datum).shifted(lam, _label_shift(datum))
    key = _label(datum, D, mu)
    return BlockLabel(datum.family, _payload(datum.family, key, lambda v: Fraction(v, D)))


def _label(datum: RootDatum, D: int, mu: list[int]) -> tuple:
    """The integer label key of an integral weight lam of any family, from
    mu = D (lam + shift), shift being rho or, for p(n), rho0 (see
    _label_shift), and D a positive integer.  Each rational entry r of the
    label is held as the int D r, so two weights with the same D have equal
    keys exactly when their labels are equal; _payload turns a key into the
    label's payload.

    Only the p(n) and reductive keys need lam integral: for p(n) to lie in
    one coset c + Z, for the window sort to be anti-dominant (block_label
    refuses other weights, and oracle._box_labels passes only points its
    frame proves integral).  The other keys hold for any rational weight,
    and typicality passes any."""
    family = datum.family
    if family == "gl":
        m = datum.params[0]
        return _cancel(mu[:m], [-c for c in mu[m:]])
    if family == "osp2":
        x, d = mu[0], sorted(abs(c) for c in mu[1:])
        if abs(x) in d:
            d.remove(abs(x))
            return (tuple(d), x % D, 1)
        return (tuple(d), x, 0)
    if family == "p":
        # rho0 is integral for p(n), so lam + rho0 lies in lam's coset c + Z,
        # c = s / D
        s = mu[0] % D
        return (sum((c - s) // D % 2 for c in mu), s)
    if family == "reductive":  # rho = rho0: the window sort of mu, less D rho0, is D rep
        frame = _integer_frame(datum)
        rep, _ = _sort_windows(_parabolic(datum).windows, mu)
        return tuple(v - D // frame.D * s for v, s in zip(rep, frame.rho0))
    a, b = abs(mu[0]), abs(mu[1])  # osp(3|2)
    return (1, a % D) if a == b else (0, (a, b))


def _payload(family: str, key: tuple, q) -> tuple:
    """The BlockLabel payload of a _label key of any family: q(v) is the
    rational v / D of each int entry v."""
    if family == "gl":
        a, b, k = key
        return (tuple(map(q, a)), tuple(map(q, b)), k)
    if family == "osp2":
        d, x, atyp = key
        return (tuple(map(q, d)), q(x), atyp)
    if family == "p":
        j, s = key
        return (j, q(s))
    if family == "reductive":
        return tuple(map(q, key))
    atyp, data = key  # osp(3|2)
    return (1, q(data)) if atyp else (0, tuple(map(q, data)))


def _in_osp32_grid(datum: RootDatum, lam: Weight) -> bool:
    """Whether lam + rho = a d + b e with a, b in -1/2 - Z_{>=0}: osp(3|2)'s X(-rho0)."""
    return all(x.denominator == 2 and x < 0 for x in (lam + datum.rho).coords)


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
    if datum.family == "osp32" and not (_in_osp32_grid(datum, lam)
                                        and _in_osp32_grid(datum, mu)):
        raise UnsupportedInputError(
            "osp(3|2) block membership is decided only inside the X(nu) grid")
    equal = _block_label(datum, lam) == _block_label(datum, mu)
    if datum.family == "p":
        return LinkStatus.LINKED_SUFFICIENT_ONLY if equal else LinkStatus.NO_LINK_KNOWN
    return LinkStatus.LINKED if equal else LinkStatus.NOT_LINKED
