"""Byte-for-byte replay of recorded Shapovalov-oracle tables.

`golden/shapovalov.json` pins `verma_series_rank_small` on every rank <= 2
reductive type over seeded regular and singular integral weights.  Each
table is stored as its sorted `mu gamma value` lines; the oracle's three
refusals (a non-reductive datum, rank 3, a non-integral weight) are stored
with their exception type and message.  Re-record the corpus (only when an
output change is intended) with

    PYTHONPATH=src python tests/test_golden_shapovalov.py
"""
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from superlink import build_root_datum, pairing_coroot, verma_series_rank_small
from superlink.errors import SuperlinkError
from superlink.weights import Weight

CORPUS = Path(__file__).resolve().parent / "golden" / "shapovalov.json"
TYPES = ("A1", "A2", "C1", "C2", "A1xA1", "A1xC1")
REFUSALS = [({"family": "gl", "m": 2, "n": 1}, "0,-2|5"),
            ({"family": "reductive", "factors": "A3"}, "-3,-1,1,3"),
            ({"family": "reductive", "factors": "A1"}, "1/2,0")]


def _answer(spec, literal):
    datum = build_root_datum(**spec)
    lam = datum.parse_weight(literal)
    try:
        table = verma_series_rank_small(datum, lam)
    except SuperlinkError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    fw = datum.format_weight
    return {"table": sorted(f"{fw(mu)} {fw(gamma)} {value}"
                            for (mu, gamma), value in table.entries.items())}


def _load():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _load() if CORPUS.exists() else [],
                         ids=lambda c: f"{c['datum'].get('factors', c['datum']['family'])} {c['lam']}")
def test_replay(case):
    expected = {k: v for k, v in case.items() if k not in ("datum", "lam")}
    assert _answer(case["datum"], case["lam"]) == expected


def test_corpus_coverage():
    cases = _load()
    tables = [c for c in cases if "table" in c]
    assert {c["datum"]["factors"] for c in tables} == set(TYPES)
    # regular orbits have |W| points, singular ones fewer
    for factors in TYPES:
        sizes = {len(c["table"]) for c in tables if c["datum"]["factors"] == factors}
        assert len(sizes) >= 2
    assert any("/" in c["lam"] for c in tables)
    assert [c["error"] for c in cases if "error" in c] == ["UnsupportedInputError"] * 3


# -- recording ------------------------------------------------------------------

def _weights(rng, factors):
    """Three regular and up to two singular integral weights with |lam + rho0| <= 3,
    plus one with a fractional central shift when the datum has an A factor."""
    datum = build_root_datum("reductive", factors=factors)
    regular, singular = [], []
    for _ in range(200):  # C1 has a single singular weight in range
        v = Weight([rng.randrange(-3, 4) for _ in range(datum.dim)])
        is_regular = all(pairing_coroot(datum, v, a) != 0 for a in datum.even_positive)
        bucket, size = (regular, 3) if is_regular else (singular, 2)
        if len(bucket) < size and v not in bucket:
            bucket.append(v)
    out = regular + singular
    kind, start, size = datum.blocks[0]
    if kind == "A":  # shifting an A block by a constant keeps every pairing
        shift = [Fraction(1, 2) if start <= i < start + size else 0 for i in range(datum.dim)]
        out.append(regular[0] + Weight(shift))
    return [datum.format_weight(v - datum.rho0) for v in out]


def record() -> None:
    rng = random.Random(20211021)
    cases = []
    for factors in TYPES:
        spec = {"family": "reductive", "factors": factors}
        cases += [{"datum": spec, "lam": lam} for lam in _weights(rng, factors)]
    cases += [{"datum": spec, "lam": lam} for spec, lam in REFUSALS]
    for case in cases:
        case.update(_answer(case["datum"], case["lam"]))
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
