"""Byte-for-byte replay of recorded CLI invocations.

Two corpora pin the stdout and exit code of each invocation:
`golden/kl_cli.json` (`klpoly` / `mult`) and `golden/box_cli.json`
(`typicality`, `block-label`, `validate`, `enumerate-block`).  Re-record
them (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_kl_cli.py [kl_cli] [box_cli]

which records the named corpora, or both when none is named.
"""
import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superlink import build_root_datum, orbit_dot
from superlink.cli import main
from superlink.weights import Weight

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPORA = ("kl_cli", "box_cli")


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _load(name):
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def _all_cases():
    return [case for name in CORPORA if (GOLDEN / f"{name}.json").exists()
            for case in _load(name)]


# an absent corpus fails its coverage test, not the import (which the
# recorder needs)
@pytest.mark.parametrize("case", _all_cases(), ids=lambda c: " ".join(c["argv"]))
def test_replay(case):
    code, stdout = _invoke(case["argv"])
    assert (code, stdout) == (case["exit"], case["stdout"])


def test_corpus_covers_refusals():
    cases = _load("kl_cli")
    assert sum(c["exit"] == 3 for c in cases) >= 3
    assert {c["argv"][0] for c in cases} == {"klpoly", "mult"}


def test_box_corpus_coverage():
    cases = _load("box_cli")
    assert {c["argv"][0] for c in cases} == {"typicality", "block-label", "validate",
                                             "enumerate-block"}
    assert any("--no-enlarge" in c["argv"] for c in cases)
    assert any("text" in c["argv"] for c in cases)
    assert any(c["exit"] == 3 for c in cases)
    degrees = {json.loads(c["stdout"]).get("degree") for c in cases
               if c["argv"][0] == "typicality" and c["exit"] == 0 and "text" not in c["argv"]}
    assert {1, 2, 3, 4} <= degrees


# -- recording: kl_cli ----------------------------------------------------------

# pairs with nontrivial polynomials, which random words rarely reach
KLPOLY_PINNED = [("a", 3, "2", "2,1,3,2"), ("a", 3, "e", "2,1,3,2"),
                 ("a", 4, "4", "1,2,1,3,4,3,2"), ("a", 4, "2,4", "1,2,3,2,1,4,3,2"),
                 ("a", 4, "e", "1,2,1,3,2,1,4,3,2,1"), ("c", 3, "1,3", "1,2,1,3,2,1,3"),
                 ("c", 3, "2", "2,1,3,2,1,3,2"), ("c", 3, "1,2,1", "1,2,1,3,2,1,3,2")]
KLPOLY_TYPES = [("a", 1), ("a", 2), ("a", 3), ("a", 4), ("c", 1), ("c", 2), ("c", 3)]
# (factors, anti-dominant regular base, partial zeta)
MULT_TYPES = [("A2", "-3,0,4", "1"), ("C2", "-5,-2", "2"),
              ("A1xC2", "-2,1|-5,-2", "1,3"), ("A3", "-4,-1,1,4", "1,3")]


def _word(rng, rank, longest):
    return [rng.randrange(1, rank + 1) for _ in range(rng.randint(0, longest))]


def _klpoly_cases(rng):
    cases = []
    for kind, rank in KLPOLY_TYPES:
        positive = rank * rank if kind == "c" else rank * (rank + 1) // 2
        for k in range(5):
            w = _word(rng, rank, positive)
            x = [s for s in w if rng.random() < 0.6] if k < 4 else _word(rng, rank, positive)
            text = lambda word: ",".join(map(str, word)) or "e"
            cases.append(["klpoly", "--type", kind, "--rank", str(rank),
                          "--x", text(x), "--w", text(w)])
        cases[-1] += ["--format", "text"]
    for kind, rank, x, w in KLPOLY_PINNED:
        cases.append(["klpoly", "--type", kind, "--rank", str(rank), "--x", x, "--w", w])
    return cases


def _mult_cases(rng):
    cases = []
    for factors, base, partial in MULT_TYPES:
        datum = build_root_datum("reductive", factors=factors)
        orbit = sorted(orbit_dot(datum, datum.parse_weight(base)))
        flags = ["--family", "reductive", "--factors", factors]
        for zeta in ("all", "none", partial):
            for lam in rng.sample(orbit, 2):
                cases.append(["mult", *flags, f"--weight={datum.format_weight(lam)}",
                              "--zeta", zeta, "--length"])
            for _ in range(3):
                lam, mu = rng.choice(orbit), rng.choice(orbit)
                cases.append(["mult", *flags, f"--weight={datum.format_weight(lam)}",
                              "--zeta", zeta, f"--mu={datum.format_weight(mu)}"])
        cases[-1] += ["--format", "text"]
    return cases


REFUSALS = [
    # a super family has no built-in table
    ["mult", "--family", "gl", "--m", "2", "--n", "1", "--weight=0,-2|5",
     "--zeta", "1", "--length"],
    ["mult", "--family", "gl", "--m", "2", "--n", "1", "--weight=0,-2|5",
     "--zeta", "1", "--mu=-3,1|5"],
    # lam + rho0 = 0 is singular
    ["mult", "--family", "reductive", "--factors", "A2", "--weight=-1,0,1",
     "--zeta", "none", "--length"],
    ["mult", "--family", "reductive", "--factors", "A2", "--weight=-1,0,1",
     "--zeta", "all", "--mu=-1,0,1"],
    # mu outside the dot orbit of lam
    ["mult", "--family", "reductive", "--factors", "A2", "--weight=-3,0,4",
     "--zeta", "none", "--mu=-3,0,5"],
    ["mult", "--family", "reductive", "--factors", "C2", "--weight=-5,-2",
     "--zeta", "2", "--mu=-4,-2"],
]


# -- recording: box_cli ---------------------------------------------------------

GL_SHAPES = [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4)]


def _flags(family, m=None, n=None, factors=None):
    out = ["--family", family]
    if m is not None:
        out += ["--m", str(m)]
    if n is not None:
        out += ["--n", str(n)]
    if factors is not None:
        out += ["--factors", factors]
    return out


def _shifted(datum, coords):
    """The literal of lam with lam + rho = coords."""
    return datum.format_weight(Weight(coords) - datum.rho)


def _typicality_cases(rng):
    cases = []

    def add(flags, datum, coords):
        cases.append(["typicality", *flags, f"--weight={_shifted(datum, coords)}"])

    for m, n in GL_SHAPES:
        flags = _flags("gl", m=m, n=n)
        datum = build_root_datum("gl", m=m, n=n)
        for _ in range(4):  # small range: many coincidences a_i = -b_j
            add(flags, datum, [rng.randrange(-2, 3) for _ in range(m + n)])
        for _ in range(2):  # half-integers
            add(flags, datum, [Fraction(rng.randrange(-4, 5), 2) for _ in range(m + n)])
        add(flags, datum, [Fraction(rng.randrange(-4, 5), 3) for _ in range(m + n)])
        if m == n:
            a = rng.sample(range(-6, 7), m)
            add(flags, datum, a + [-c for c in rng.sample(a, m)])  # degree m
            add(flags, datum, [0] * (m + n))
    cases[-1] += ["--format", "text"]
    for n in (1, 2):
        flags = _flags("osp2", n=n)
        datum = build_root_datum("osp2", n=n)
        for _ in range(3):
            add(flags, datum, [rng.randrange(-3, 4) for _ in range(n + 1)])
        d = [rng.randrange(-3, 4) for _ in range(n)]
        add(flags, datum, [-d[-1]] + d)  # |x| = |d_n|
        add(flags, datum, [Fraction(rng.randrange(-5, 6), 2) for _ in range(n + 1)])
        add(flags, datum, [Fraction(1, 2), Fraction(-1, 2)] + [Fraction(1, 3)] * (n - 1))
    datum = build_root_datum("osp32")
    for a, b in [(Fraction(1, 2), Fraction(-1, 2)), (Fraction(-3, 2), Fraction(-3, 2)),
                 (Fraction(1, 2), Fraction(3, 2)), (Fraction(2), Fraction(-2)),
                 (Fraction(1, 3), Fraction(1)), (Fraction(0), Fraction(0))]:
        add(["--family", "osp32"], datum, [a, b])
    for n in (2, 3):
        cases.append(["typicality", *_flags("p", n=n), "--weight=" + ",".join("0" * n)])
    cases.append(["typicality", *_flags("p", n=2), "--weight=1/2,-3/2", "--format", "text"])
    cases.append(["typicality", *_flags("reductive", factors="A2"), "--weight=3,1,0"])
    cases.append(["typicality", *_flags("reductive", factors="A1xC2"), "--weight=0,0|0,0"])
    cases.append(["typicality", *_flags("gl", m=2, n=1), "--weight=0,0"])  # wrong dim
    return cases


def _block_label_cases(rng):
    cases = []
    for m, n in GL_SHAPES[:4]:
        flags = _flags("gl", m=m, n=n)
        for _ in range(3):
            lam = ",".join(str(rng.randrange(-3, 4)) for _ in range(m + n))
            cases.append(["block-label", *flags, f"--weight={lam}"])
    cases.append(["block-label", *_flags("gl", m=1, n=1), "--weight=1/2,0"])
    for n in (1, 2):
        for _ in range(3):
            lam = ",".join(str(rng.randrange(-3, 4)) for _ in range(n + 1))
            cases.append(["block-label", *_flags("osp2", n=n), f"--weight={lam}"])
    for n in (2, 3):
        for _ in range(3):
            lam = ",".join(str(rng.randrange(-3, 4)) for _ in range(n))
            cases.append(["block-label", *_flags("p", n=n), f"--weight={lam}"])
    cases.append(["block-label", *_flags("p", n=2), "--weight=1/2,-3/2"])
    cases.append(["block-label", *_flags("p", n=2), "--weight=0,1/2"])
    for a, b in [(0, "-1/2"), (1, "1/2"), (-2, "3/2"), (3, "-5/2")]:
        cases.append(["block-label", "--family", "osp32", f"--weight={a},{b}"])
    cases.append(["block-label", *_flags("reductive", factors="A2"), "--weight=2,-1,0"])
    cases.append(["block-label", *_flags("reductive", factors="C2"), "--weight=1,-3",
                  "--format", "text"])
    return cases


VALIDATE_BOXES = [
    (_flags("p", n=2), " -3..3"), (_flags("p", n=3), " -2..2"),
    (_flags("gl", m=2, n=1), " -2..2"), (_flags("gl", m=2, n=1), " -2..1, -1..2, 0..2"),
    (_flags("gl", m=1, n=1), " -1..4, -3..0"),
    (_flags("osp2", n=1), " -3..3"), (["--family", "osp32"], " -3..3"),
]

ENUMERATE_BLOCKS = [
    (_flags("p", n=2), "0,0", " -3..3"), (_flags("p", n=3), "0,1,0", " -1..1"),
    (_flags("gl", m=2, n=1), "0,0,0", " -2..2"), (_flags("osp2", n=1), "2;-1", " -3..3"),
    (["--family", "osp32"], "0,-1/2", " -3..3"),
    (_flags("reductive", factors="A1"), "0,0", " -2..2"),
    (_flags("gl", m=1, n=1), "1/2,0", " -1..1"),
]


def _box_cases():
    cases = []
    for flags, box in VALIDATE_BOXES:
        cases.append(["validate", *flags, f"--box={box}"])
        cases.append(["validate", *flags, f"--box={box}", "--no-enlarge"])
    cases[-1] += ["--format", "text"]
    for flags, lam, box in ENUMERATE_BLOCKS:
        cases.append(["enumerate-block", *flags, f"--weight={lam}", f"--box={box}"])
    cases[-2] += ["--format", "text"]
    return cases


def _argvs(name):
    rng = random.Random(20211008 if name == "kl_cli" else 20211018)
    if name == "kl_cli":
        return _klpoly_cases(rng) + _mult_cases(rng) + REFUSALS
    return _typicality_cases(rng) + _block_label_cases(rng) + _box_cases()


def record(names=CORPORA) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        cases = []
        for argv in _argvs(name):
            code, stdout = _invoke(argv)
            cases.append({"argv": argv, "exit": code, "stdout": stdout})
        (GOLDEN / f"{name}.json").write_text(json.dumps(cases, indent=1) + "\n",
                                             encoding="utf-8")


if __name__ == "__main__":
    record(sys.argv[1:] or CORPORA)
