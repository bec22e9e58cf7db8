"""Command-line surface.

Every subcommand validates its inputs before computing and emits a single
JSON object by default (`--format text` for a terse human form).  Exit
codes: 0 success, 1 oracle soundness failure from `validate`, 2 usage
error, 3 unsupported or out-of-scope input.

Datum selection: `--family gl --m 2 --n 1`, `--family osp2 --n 2`,
`--family p --n 3`, `--family osp32`, `--family reductive --factors A2,C1`.
Weights use the literal grammar `3,-1|2` / `0;1/2,-3/2`; Weyl elements use
signed cycles `(1 2)(3 -3)`; characters use 1-based indices into Pi_0
(`--zeta 1,3`, `--zeta all`, `--zeta none`).

Only the commands that call them import the KL engine (`klpoly`, `mult`)
and the box oracle (`validate`, `enumerate-block`), each taking its default
cap from that module when it runs; the other commands never load either.
Only those four commands take `--config`, a file that may set `box_cap`
and `kl_cap`; `validate` and `enumerate-block` read `box_cap`, `klpoly` and
`mult` read `kl_cap`.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .blocks import block_label, same_block, typicality
from .errors import SuperlinkError
from .root_data import RootDatum, build_root_datum
from .weights import format_rational, rational
from .weyl import (WeylElement, _refuse_above, antidominant_rep, dot, stabilizer_roots,
                   validate_element)
from .whittaker import WhittakerCharacter, classify_simple, in_X, in_X0, upsilon_of

if TYPE_CHECKING:
    from .oracle import WeightBox

SCHEMA_VERSION = 1
_CAP_KEYS = ("box_cap", "kl_cap")  # what a --config file may set


def _add_datum_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   choices=["gl", "osp2", "p", "osp32", "reductive"])
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--factors", help="reductive factors, e.g. A2,C1")
    p.add_argument("--format", choices=["json", "text"], default="json")


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value lines overriding caps")


@functools.lru_cache(maxsize=32)
def _root_datum(family: str, m, n, factors) -> RootDatum:
    # RootDatum is frozen, so calls may share one; a refusal is not cached
    return build_root_datum(family, m=m, n=n, factors=factors)


def _datum(args) -> RootDatum:
    return _root_datum(args.family, args.m, args.n, args.factors)


def _cap(args, name: str, default: int) -> int:
    """The cap `name`: `default`, unless the --config file sets it.  The
    file may set any of _CAP_KEYS, whichever cap the command reads."""
    out = {name: default}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _CAP_KEYS:
                    raise SuperlinkError(f"unknown config key {key!r}")
                out[key] = int(value.strip())
    return out[name]


def _default_anchor(datum: RootDatum) -> tuple[Fraction, ...]:
    """The origin of the integral lattice the box enumerates.

    Zero works for every family except osp(3|2), whose integral weights
    have a half-integer second coordinate.
    """
    if datum.family == "osp32":
        return (Fraction(0), Fraction(-1, 2))
    return tuple(Fraction(0) for _ in range(datum.dim))


def _box_ranges(text: str) -> list[tuple[str, str]]:
    """The `--box` value split into (lo, hi) literals: `lo..hi` for all
    coordinates, or comma-separated per-coordinate ranges."""
    ranges = [r.split("..") for r in text.split(",") if r.strip()]
    if any(len(r) != 2 for r in ranges):
        raise argparse.ArgumentTypeError(f"each range must read lo..hi, got {text!r}")
    return [(lo, hi) for lo, hi in ranges]


def _parse_box(datum: RootDatum, ranges: list[tuple[str, str]],
               anchor_text: str | None = None) -> WeightBox:
    from .oracle import WeightBox
    anchor = (_default_anchor(datum) if anchor_text is None
              else datum.parse_weight(anchor_text).coords)
    if len(ranges) == 1:
        ranges = ranges * datum.dim
    elif len(ranges) != datum.dim:
        raise SuperlinkError(f"box needs 1 or {datum.dim} ranges, got {len(ranges)}")
    return WeightBox(tuple(rational(lo) for lo, _ in ranges),
                     tuple(rational(hi) for _, hi in ranges), anchor=anchor)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(text)


def cmd_root_data(args) -> int:
    datum = _datum(args)
    payload = {
        "schema": SCHEMA_VERSION,
        "family": datum.family,
        "label": datum.describe(),
        "dim": datum.dim,
        "form_signature": [format_rational(s) for s in datum.form_signature],
        "simple_even": [datum.format_weight(r.weight) for r in datum.simple_even],
        "even_positive": [datum.format_weight(r.weight) for r in datum.even_positive],
        "odd_roots": [datum.format_weight(r.weight) for r in datum.odd_roots],
        "isotropic": [datum.format_weight(r.weight) for r in datum.isotropic_roots],
        "rho0": datum.format_weight(datum.rho0),
        "rho1": datum.format_weight(datum.rho1),
        "rho": datum.format_weight(datum.rho),
    }
    _emit(args, payload, "\n".join(f"{k}: {v}" for k, v in payload.items()))
    return 0


def cmd_dot(args) -> int:
    datum = _datum(args)
    w = WeylElement.from_cycles(args.w, datum.dim)
    validate_element(datum, w)
    lam = datum.parse_weight(args.weight)
    result = dot(datum, w, lam)
    _emit(args, {"result": datum.format_weight(result)}, datum.format_weight(result))
    return 0


def cmd_antidom(args) -> int:
    datum = _datum(args)
    lam = datum.parse_weight(args.weight)
    sub = WhittakerCharacter.from_indices(datum, args.zeta).support
    rep, w = antidominant_rep(datum, lam, sub)
    payload = {"rep": datum.format_weight(rep), "witness": w.to_cycles()}
    _emit(args, payload, f"{payload['rep']} via {payload['witness']}")
    return 0


def cmd_stab(args) -> int:
    datum = _datum(args)
    lam = datum.parse_weight(args.weight)
    roots = stabilizer_roots(datum, lam)
    payload = {"stabilizer_roots": [datum.format_weight(r.weight) for r in roots]}
    _emit(args, payload, " ".join(payload["stabilizer_roots"]) or "(regular)")
    return 0


def cmd_classify(args) -> int:
    datum = _datum(args)
    zeta = WhittakerCharacter.from_indices(datum, args.zeta)
    lam = datum.parse_weight(args.weight)
    param = classify_simple(datum, lam, zeta)
    payload = {
        "zeta": [datum.simple_even.index(r) + 1 for r in zeta.support],
        "rep": datum.format_weight(param.rep),
        "witness": param.witness.to_cycles(),
    }
    _emit(args, payload, f"rep ({payload['rep']})")
    return 0


def cmd_upsilon(args) -> int:
    datum = _datum(args)
    nu = datum.parse_weight(args.nu)
    roots = upsilon_of(datum, nu)
    payload = {
        "indices": [datum.simple_even.index(r) + 1 for r in roots],
        "roots": [datum.format_weight(r.weight) for r in roots],
    }
    _emit(args, payload, " ".join(payload["roots"]) or "(regular)")
    return 0


def cmd_in_x(args) -> int:
    datum = _datum(args)
    nu = datum.parse_weight(args.nu)
    lam = datum.parse_weight(args.weight)
    payload = {"in_x0": in_X0(datum, nu, lam), "in_x": in_X(datum, nu, lam)}
    _emit(args, payload, f"in_x={payload['in_x']} in_x0={payload['in_x0']}")
    return 0


def cmd_typicality(args) -> int:
    datum = _datum(args)
    lam = datum.parse_weight(args.weight)
    t = typicality(datum, lam)
    payload = {"kind": t.kind}
    if t.kind == "atypical":
        payload["degree"] = t.degree
    _emit(args, payload, t.kind + (f" degree {t.degree}" if t.degree else ""))
    return 0


def cmd_block_label(args) -> int:
    datum = _datum(args)
    lam = datum.parse_weight(args.weight)
    label = block_label(datum, lam)
    _emit(args, label.to_json(), label.json_str())
    return 0


def cmd_same_block(args) -> int:
    datum = _datum(args)
    lam = datum.parse_weight(args.weight)
    mu = datum.parse_weight(args.mu)
    status = same_block(datum, lam, mu)
    _emit(args, {"status": status.value}, status.value)
    return 0


def cmd_enumerate_block(args) -> int:
    from . import oracle
    datum = _datum(args)
    cap = _cap(args, "box_cap", oracle.BOX_CAP)
    lam = datum.parse_weight(args.weight)
    target = block_label(datum, lam)
    box = _parse_box(datum, args.box, args.anchor)
    matches = oracle.block_members(datum, box, target, cap)
    payload = {"label": target.to_json(),
               "count": len(matches),
               "weights": [datum.format_weight(w) for w in matches]}
    _emit(args, payload, "\n".join(payload["weights"]))
    return 0


def cmd_klpoly(args) -> int:
    from . import kl
    cap = _cap(args, "kl_cap", kl.KL_GROUP_CAP)
    kind = args.type.upper()
    if args.rank > 0:  # else the datum refuses the factor
        # refused from its one window before the datum is built
        size = args.rank + 1 if kind == "A" else args.rank
        _refuse_above([(kind, size)], cap, configured=bool(args.config))
    datum = _root_datum("reductive", None, None, ((kind, args.rank),))
    W = kl.FiniteWeylGroup(datum, cap)

    def word_of(text: str):
        if text.strip() in ("e", ""):
            return []
        letters = [int(t) for t in text.replace(",", " ").split()]
        for t in letters:
            if not 1 <= t <= args.rank:
                raise SuperlinkError(f"word letter {t} out of range 1..{args.rank}")
        return [t - 1 for t in letters]

    x = W.from_word(word_of(args.x))
    w = W.from_word(word_of(args.w))
    poly = kl.kl_polynomial(W, x, w)
    payload = {"coeffs": list(poly.coeffs), "poly": str(poly)}
    _emit(args, payload, str(poly))
    return 0


def cmd_mult(args) -> int:
    from . import kl
    datum = _datum(args)
    cap = _cap(args, "kl_cap", kl.KL_GROUP_CAP)
    zeta = WhittakerCharacter.from_indices(datum, args.zeta)
    lam = datum.parse_weight(args.weight)
    table = None
    if args.mult_table:
        table = kl.load_mult_table(datum, args.mult_table)
    if args.mu is None and not args.length:
        raise SuperlinkError("mult needs --mu or --length")
    if args.length:
        value = kl.whittaker_length(datum, lam, zeta, table, cap)
        _emit(args, {"length": value}, str(value))
        return 0
    mu = datum.parse_weight(args.mu)
    value = kl.whittaker_mult(datum, lam, mu, zeta, table, cap)
    _emit(args, {"multiplicity": value}, str(value))
    return 0


def cmd_validate(args) -> int:
    from . import oracle
    datum = _datum(args)
    cap = _cap(args, "box_cap", oracle.BOX_CAP)
    box = _parse_box(datum, args.box, args.anchor)
    report = oracle.partition_box(datum, box, enlarge=not args.no_enlarge, cap=cap)
    payload = report.to_json(datum)
    payload["schema"] = SCHEMA_VERSION
    text = (f"{len(report.components)} components over "
            f"{payload['points']} points; sound={report.sound}")
    _emit(args, payload, text)
    return 0 if report.sound else 1


_EPILOG = """\
output (schema version 1): every subcommand prints one JSON object; weights
appear as literals that parse back exactly ("3,-1|2", "0;1/2,-3/2"), Weyl
elements as signed cycles ("(1 2)(3 -3)"), rationals as "p/q".  Exit codes:
0 ok, 1 validate found a label/component disagreement, 2 usage, 3
unsupported input.  For weights starting with "-" write --weight=-1,2.

The dominant partner used to realize a character's stabilizer (upsilon of
nu equals the support) is built deterministically: (nu+rho0)-coordinates
are constant on support-connected groups and strictly decrease across
groups, anchored at the smallest magnitude in rho0's integrality class
(type C windows stay nonnegative, ending at zero exactly when the sign
root is in the support).
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superlink",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Exact combinatorics of Whittaker-module parameters: "
                    "root data, dot action, block labels, KL multiplicities "
                    "and brute-force validation.",
        epilog=_EPILOG)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, fn, **kwargs):
        p = subs.add_parser(name, **kwargs)
        _add_datum_flags(p)
        p.set_defaults(fn=fn)
        return p

    sub("root-data", cmd_root_data, help="print the root datum")

    p = sub("dot", cmd_dot, help="apply the dot action")
    p.add_argument("--w", required=True, help="Weyl element in cycle notation")
    p.add_argument("--weight", required=True)

    p = sub("antidom", cmd_antidom, help="anti-dominant representative")
    p.add_argument("--weight", required=True)
    p.add_argument("--zeta", default="all", help="parabolic (default: full Weyl group)")

    p = sub("stab", cmd_stab, help="dot-stabilizer roots")
    p.add_argument("--weight", required=True)

    p = sub("classify", cmd_classify, help="canonical simple Whittaker parameter")
    p.add_argument("--zeta", required=True)
    p.add_argument("--weight", required=True)

    p = sub("upsilon", cmd_upsilon, help="singular simple roots of a dominant weight")
    p.add_argument("--nu", required=True)

    p = sub("in-x", cmd_in_x, help="membership in X(nu) and X0(nu)")
    p.add_argument("--nu", required=True)
    p.add_argument("--weight", required=True)

    p = sub("typicality", cmd_typicality, help="typical/atypical with degree")
    p.add_argument("--weight", required=True)

    p = sub("block-label", cmd_block_label, help="canonical block label")
    p.add_argument("--weight", required=True)

    p = sub("same-block", cmd_same_block, help="linkage decision for two weights")
    p.add_argument("--weight", required=True)
    p.add_argument("--mu", required=True)

    p = sub("enumerate-block", cmd_enumerate_block,
            help="box weights sharing a block label")
    p.add_argument("--weight", required=True)
    p.add_argument("--box", required=True, type=_box_ranges)
    p.add_argument("--anchor", help="lattice origin (default: integral lattice)")
    _add_config_flag(p)

    p = subs.add_parser("klpoly", help="Kazhdan-Lusztig polynomial")
    p.add_argument("--type", choices=["a", "c"], required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--x", required=True, help="word in 1-based simple indices")
    p.add_argument("--w", required=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    _add_config_flag(p)
    p.set_defaults(fn=cmd_klpoly)

    p = sub("mult", cmd_mult, help="standard Whittaker multiplicities")
    p.add_argument("--weight", required=True)
    p.add_argument("--zeta", required=True)
    p.add_argument("--mu")
    p.add_argument("--length", action="store_true")
    p.add_argument("--mult-table", dest="mult_table")
    _add_config_flag(p)

    p = sub("validate", cmd_validate, help="box oracle: components vs labels")
    p.add_argument("--box", required=True, type=_box_ranges)
    p.add_argument("--anchor", help="lattice origin (default: integral lattice)")
    p.add_argument("--no-enlarge", action="store_true")
    _add_config_flag(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SuperlinkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
