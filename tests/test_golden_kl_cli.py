"""Byte-for-byte replay of recorded CLI invocations.

Three corpora pin the stdout and exit code of each invocation:
`golden/kl_cli.json` (`klpoly` / `mult`), `golden/box_cli.json`
(`typicality`, `block-label`, `same-block`, `validate`, `enumerate-block`)
and `golden/weyl_cli.json` (`root-data`, `dot`, `antidom`, `stab`,
`classify`, `upsilon`, `in-x`).  The `enumerate-block` cases and every
`weyl_cli` case pin stderr as well, so each refusal keeps its message; for
a usage error (exit 2) only the last stderr line is pinned, since argparse
wraps the usage text to the terminal width.  Re-record them (only when an
output change is intended) with

    PYTHONPATH=src python tests/test_golden_kl_cli.py [kl_cli] [box_cli] [weyl_cli]

which records the named corpora, or all three when none is named.
"""
import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superlink import (WhittakerCharacter, antidominant_rep, build_root_datum,
                       dominant_partner, is_integral, orbit_dot, upsilon_of)
from superlink.cli import main
from superlink.oracle import WeightBox, bfs_linkage_closure
from superlink.weights import Weight, format_weight, rational
from superlink.weyl import WeylElement

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPORA = ("kl_cli", "box_cli", "weyl_cli")


def _invoke(argv):
    """Run the CLI on argv; a `--config=NAME` names a file in golden/.  A
    usage error returns argparse's exit code and the last line of stderr."""
    argv = [f"--config={GOLDEN / a[len('--config='):]}" if a.startswith("--config=") else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue().splitlines()[-1] + "\n"
    return code, out.getvalue(), err.getvalue()


def _load(name):
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def _all_cases():
    return [case for name in CORPORA if (GOLDEN / f"{name}.json").exists()
            for case in _load(name)]


# an absent corpus fails its coverage test, not the import (which the
# recorder needs)
@pytest.mark.parametrize("case", _all_cases(), ids=lambda c: " ".join(c["argv"]))
def test_replay(case):
    code, stdout, stderr = _invoke(case["argv"])
    assert (code, stdout) == (case["exit"], case["stdout"])
    if "stderr" in case:
        assert stderr == case["stderr"]


def test_corpus_covers_refusals():
    cases = _load("kl_cli")
    assert sum(c["exit"] == 3 for c in cases) >= 3
    assert {c["argv"][0] for c in cases} == {"klpoly", "mult"}


def test_box_corpus_coverage():
    cases = _load("box_cli")
    assert {c["argv"][0] for c in cases} == {"typicality", "block-label", "same-block",
                                             "validate", "enumerate-block"}
    assert any("--no-enlarge" in c["argv"] for c in cases)
    assert any("text" in c["argv"] for c in cases)
    assert any(c["exit"] == 3 for c in cases)
    anchored = [c for c in cases if any(a.startswith("--anchor=") for a in c["argv"])]
    assert {c["exit"] for c in anchored if c["argv"][0] == "validate"} == {0, 3}
    degrees = {json.loads(c["stdout"]).get("degree") for c in cases
               if c["argv"][0] == "typicality" and c["exit"] == 0 and "text" not in c["argv"]}
    assert {1, 2, 3, 4} <= degrees
    same = [c for c in cases if c["argv"][0] == "same-block"]
    assert {c["argv"][2] for c in same} == {"gl", "osp2", "p", "osp32", "reductive"}
    statuses = {json.loads(c["stdout"])["status"] for c in same
                if c["exit"] == 0 and "text" not in c["argv"]}
    assert statuses == {"linked", "not-linked", "linked-sufficient-only", "no-link-known"}
    refused = [c["argv"] for c in same if c["exit"] == 3]
    assert any("osp32" in argv for argv in refused)  # off the X(nu) grid
    assert any("--weight=1/2,0|0" in argv for argv in refused)  # not integral
    for c in ("1/2", "1/3"):  # p(n) weights in the coset c + Z
        assert any(c in argv[-1] for argv in (c["argv"] for c in same) if "p" in argv)
    labels = [c["argv"] for c in cases if c["argv"][0] == "block-label"]
    assert sum("p" in argv and "/" in argv[-1] for argv in labels) >= 8
    assert any("osp2" in argv and "/2;" in argv[-1] for argv in labels)
    assert any("osp32" in argv and argv[-1] == "--weight=0,0" for argv in labels)
    enum = [c for c in cases if c["argv"][0] == "enumerate-block"]
    assert all("stderr" in c for c in enum)
    refusals = {c["stderr"] for c in enum if c["exit"] == 3}
    assert "error: block labels are defined for integral weights\n" in refusals
    assert any(e.startswith("error: box holds ") for e in refusals)  # --config box_cap
    assert any("--config=box_cap.conf" in c["argv"] and c["exit"] == 0 for c in enum)
    assert any("p" in c["argv"] and "--weight=1/2,1/3" in c["argv"] for c in enum)
    anchored = [c["argv"] for c in enum if c["exit"] == 0
                and any(a.startswith("--anchor=") for a in c["argv"])]
    for coset in ("1/2", "1/3", "-1/4"):  # fractional p(n) cosets
        assert any("p" in argv and f"--anchor={coset}," in " ".join(argv) for argv in anchored)
    for data in (["osp32"], ["gl", "--m", "2", "--n", "2"], ["osp2", "--n", "2"]):
        assert any(c["argv"][2:2 + len(data)] == data and c["exit"] == 0 for c in enum)
    assert any(c["argv"][2] == "osp32" and "/2" in c["argv"][3] for c in enum)
    assert any(c["argv"][2] == "reductive" and "text" in c["argv"] and c["exit"] == 0
               for c in enum)


def test_weyl_corpus_coverage():
    cases = _load("weyl_cli")
    assert {c["argv"][0] for c in cases} == set(WEYL_COMMANDS)
    assert all("stderr" in c for c in cases)
    families = {"gl", "osp2", "p", "osp32", "reductive"}
    for command in WEYL_COMMANDS:
        mine = [c for c in cases if c["argv"][0] == command]
        assert {c["argv"][2] for c in mine if c["exit"] == 0} == families, command
        assert any(c["exit"] == 3 for c in mine), command
        assert any("text" in c["argv"] for c in mine), command
        if command != "root-data":  # fractional weights, answered and refused
            answered = [c for c in mine if c["exit"] == 0]
            assert any("/" in " ".join(c["argv"]) for c in answered), command
    assert {c["exit"] for c in cases} == {0, 2, 3}
    refusals = {c["stderr"] for c in cases if c["exit"] == 3}
    for message in ("anti-dominant representatives need an integral weight",
                    "simple-parameter classification needs an integral weight",
                    "stabilizer roots are computed for integral weights",
                    "upsilon is defined for integral weights",
                    "upsilon is defined for dominant weights",
                    "for osp(3|2) only the full-stabilizer nu = -rho0 is supported",
                    "sign change outside a type C block",
                    "element mixes coordinates across blocks"):
        assert f"error: {message}\n" in refusals, message
    zetas = {c["argv"][c["argv"].index("--zeta") + 1] for c in cases
             if c["argv"][0] in ("antidom", "classify") and "--zeta" in c["argv"]}
    assert {"none", "all"} < zetas and any("," in z for z in zetas)
    in_x = [json.loads(c["stdout"]) for c in cases
            if c["argv"][0] == "in-x" and c["exit"] == 0 and "text" not in c["argv"]]
    assert {(a["in_x0"], a["in_x"]) for a in in_x} == {(True, True), (False, False),
                                                       (False, True)}  # the osp(3|2) grid
    singular = [c for c in cases if c["argv"][0] == "stab" and c["exit"] == 0
                and "text" not in c["argv"] and json.loads(c["stdout"])["stabilizer_roots"]]
    assert {c["argv"][2] for c in singular} == families


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
    # the heaviest cells: p(4) closes a few large components, gl(2|2) and
    # osp(2|4) many small ones
    (_flags("p", n=4), " -2..2"), (_flags("gl", m=2, n=2), " -1..1"),
    (_flags("osp2", n=2), " -2..2"),
    (_flags("osp2", n=1), " -3..3"), (["--family", "osp32"], " -3..3"),
]

ENUMERATE_BLOCKS = [
    (_flags("p", n=2), "0,0", " -3..3"), (_flags("p", n=3), "0,1,0", " -1..1"),
    (_flags("gl", m=2, n=1), "0,0,0", " -2..2"), (_flags("osp2", n=1), "2;-1", " -3..3"),
    (["--family", "osp32"], "0,-1/2", " -3..3"),
    (_flags("reductive", factors="A1"), "0,0", " -2..2"),
    (_flags("gl", m=1, n=1), "1/2,0", " -1..1"),
]

# (datum flags, weight, box, extra flags): anchors, caps, refusals and the
# larger data of enumerate-block
ENUMERATE_MORE = [
    # every box point is non-integral; the target is integral
    (_flags("gl", m=2, n=1), "0,0|0", " -2..2", ["--anchor=1/2,0|0"]),
    (_flags("p", n=2), "0,0", " -2..2", ["--anchor=1/2,0"]),  # mixed-coset points
    (_flags("p", n=2), "1/2,1/3", " -1..1", []),  # a mixed-coset target
    (_flags("p", n=2), "0,0", " -2..2", ["--config=box_cap.conf"]),  # 25 points, cap 10
    (_flags("p", n=2), "0,0", " -1..1", ["--config=box_cap.conf"]),  # 9 points
    (_flags("p", n=2), "0,0", " 2..1", []),  # an empty box
    (_flags("p", n=3), "1/3,1/3,-2/3", " -2..2", ["--anchor=1/3,1/3,1/3"]),
    (_flags("p", n=4), "-1/4,3/4,-1/4,-5/4", " -2..2", ["--anchor=-1/4,-1/4,-1/4,-1/4"]),
    (_flags("p", n=2), "1/2,-3/2", " -3..3", ["--anchor=1/2,1/2", "--format", "text"]),
    (["--family", "osp32"], "1,-3/2", " -3..3", []),  # the half-lattice anchor 0,-1/2
    (["--family", "osp32"], "2,1/2", " -3..3", ["--format", "text"]),
    (_flags("gl", m=2, n=2), "0,0|0,0", " -2..2", []),
    (_flags("gl", m=2, n=2), "1,-1|0,2", " -2..2", []),
    (_flags("osp2", n=2), "1;0,-1", " -2..2", []),
    (_flags("osp2", n=2), "-1;2,0", " -3..3", []),
    (_flags("reductive", factors="A2"), "0,0,0", " -2..2", ["--format", "text"]),
    (_flags("reductive", factors="A1xC1"), "1,-1|0", " -2..2", ["--format", "text"]),
]


# (datum flags, box, anchor or None): the anchor and the box bounds fix the
# common denominator of the box oracle's integer frame
ANCHORED_BOXES = [
    (_flags("p", n=3), " -2..2", "1/3,1/3,1/3"), (_flags("p", n=2), " -3..3", "1/2,1/2"),
    (_flags("gl", m=1, n=1), " -2..2", "1/2,0"),  # half-integer points, exit 0
    (_flags("osp2", n=1), " -3..3", "1/2;0"), (_flags("osp2", n=2), " -1..2", "-1/2;0,1"),
    (["--family", "osp32"], " -3..3", "0,0"), (["--family", "osp32"], " -2..3", "1,1/2"),
    (_flags("reductive", factors="A2"), " -2..2", None),
    (_flags("reductive", factors="A2"), " -1..2", "1/2,1/2,1/2"),
    (_flags("reductive", factors="A1xC1"), " -2..2, -1..1, -2..2", "1/3,1/3|0"),
    (_flags("gl", m=2, n=1), " -3/2..3/2, -1..2, 1/2..2", "1/2,1/2|1/2"),
    # refusals: the anchor puts every point off the integral lattice
    (_flags("p", n=2), " -3..3", "1/2,0"), (_flags("gl", m=2, n=1), " -2..2", "1/2,0|0"),
    (_flags("reductive", factors="A2"), " -1..1", "1/2,0,0"),
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
    for flags, box, anchor in ANCHORED_BOXES:
        anchored = [] if anchor is None else [f"--anchor={anchor}"]
        cases.append(["validate", *flags, f"--box={box}", *anchored])
        cases.append(["validate", *flags, f"--box={box}", *anchored, "--format", "text"])
    cases.append(["enumerate-block", *_flags("p", n=2), "--weight=1/2,1/2", "--box= -2..2",
                  "--anchor=1/2,1/2"])
    for flags, lam, box, extra in ENUMERATE_MORE:
        cases.append(["enumerate-block", *flags, f"--weight={lam}", f"--box={box}", *extra])
    return cases


# (family, builder params) of the same-block cases: all five families
SAME_BLOCK_DATA = [("gl", {"m": 1, "n": 1}), ("gl", {"m": 2, "n": 1}), ("gl", {"m": 2, "n": 2}),
                   ("osp2", {"n": 1}), ("osp2", {"n": 2}), ("p", {"n": 2}), ("p", {"n": 3}),
                   ("reductive", {"factors": "A2"}), ("reductive", {"factors": "A1xC1"})]
COSETS = (Fraction(1, 2), Fraction(1, 3))


def _linked_pair(rng, datum, draw, anchor=None):
    """A random lam = draw() and another weight the box oracle links to it;
    lam itself when 30 draws found only one-point components."""
    box = WeightBox.cube(datum.dim, -4, 4)
    box = WeightBox(box.lo, box.hi, anchor)
    for _ in range(30):
        lam = draw()
        others = [w for w in bfs_linkage_closure(datum, lam, box)
                  if w != lam]
        if others:
            return lam, rng.choice(others)
    return lam, lam


def _same_block_cases(rng):
    cases = []

    def add(flags, datum, lam, mu):
        cases.append(["same-block", *flags, f"--weight={datum.format_weight(lam)}",
                      f"--mu={datum.format_weight(mu)}"])

    for family, params in SAME_BLOCK_DATA:
        datum = build_root_datum(family, **params)
        flags = _flags(family, **params)
        points = lambda c=0: Weight([c + rng.randrange(-2, 3) for _ in range(datum.dim)])
        for _ in range(2):
            add(flags, datum, points(), points())
        lam, mu = _linked_pair(rng, datum, points)
        add(flags, datum, lam, mu)
        add(flags, datum, lam, lam)
        if family == "p":  # the c + Z cosets, and a pair across two cosets
            for c in COSETS:
                lam, mu = _linked_pair(rng, datum, lambda: points(c), (c,) * datum.dim)
                add(flags, datum, lam, mu)
                add(flags, datum, lam, points(c))
            add(flags, datum, points(COSETS[0]), points(COSETS[1]))
    cases[-1] += ["--format", "text"]
    osp32 = ["--family", "osp32"]
    datum = build_root_datum("osp32")
    # (lam + rho, mu + rho) on the grid a, b in -1/2 - Z_{>=0}; the last lam is off it
    for a, b, c, d in [("-1/2", "-1/2", "-3/2", "-3/2"), ("-1/2", "-3/2", "-3/2", "-1/2"),
                       ("-5/2", "-3/2", "-5/2", "-3/2"), ("-3/2", "-5/2", "-1/2", "-1/2"),
                       ("1/2", "-1/2", "-1/2", "-1/2")]:
        add(osp32, datum, Weight([rational(a), rational(b)]) - datum.rho,
            Weight([rational(c), rational(d)]) - datum.rho)
    # refusals: a non-integral weight, a mixed coset, a wrong dimension
    cases += [["same-block", *_flags("gl", m=2, n=1), "--weight=1/2,0|0", "--mu=0,0|0"],
              ["same-block", *_flags("p", n=2), "--weight=1/2,1/3", "--mu=1/2,1/2"],
              ["same-block", *_flags("reductive", factors="A2"), "--weight=0,0,0",
               "--mu=1/2,0,0"],
              ["same-block", *osp32, "--weight=1/2,0", "--mu=0,-1/2"],
              ["same-block", *_flags("osp2", n=1), "--weight=0;0", "--mu=0,0,0"]]
    return cases


def _coset_label_cases(rng):
    """block-label on fractional p(n) cosets and half-integral osp coordinates."""
    cases = []
    for n in (2, 3, 4):
        for c in (*COSETS, Fraction(2, 3), Fraction(-1, 4)):
            lam = Weight([c + rng.randrange(-3, 4) for _ in range(n)])
            cases.append(["block-label", *_flags("p", n=n), f"--weight={format_weight(lam)}"])
    for n in (1, 2):
        datum = build_root_datum("osp2", n=n)
        for x in ("1/2", "-3/2", "5/2", "1/3"):
            d = ",".join(str(rng.randrange(-3, 4)) for _ in range(n))
            cases.append(["block-label", *_flags("osp2", n=n), f"--weight={x};{d}"])
        d = [rng.randrange(-3, 4) for _ in range(n)]
        lam = _shifted(datum, [Fraction(d[0])] + d)  # atypical, integral x + rho_x
        cases.append(["block-label", *_flags("osp2", n=n), f"--weight={lam}"])
    for lam in ("0,0", "1,0", "1,1", "-1,0", "2,-3", "-2,1", "3,-5/2"):
        cases.append(["block-label", "--family", "osp32", f"--weight={lam}"])
    cases[-1] += ["--format", "text"]
    return cases


# -- recording: weyl_cli --------------------------------------------------------

# (family, builder params): all five families, type A and C factors
WEYL_DATA = [("gl", {"m": 1, "n": 1}), ("gl", {"m": 2, "n": 1}), ("gl", {"m": 2, "n": 2}),
             ("osp2", {"n": 1}), ("osp2", {"n": 2}), ("p", {"n": 2}), ("p", {"n": 3}),
             ("osp32", {}), ("reductive", {"factors": "A2"}), ("reductive", {"factors": "C2"}),
             ("reductive", {"factors": "A1xC2"}), ("reductive", {"factors": "A2xC2"})]
COSET_SHIFTS = (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4))


def _random_element(rng, datum):
    """A random signed permutation respecting the datum's blocks."""
    images = list(range(1, datum.dim + 1))
    for kind, start, size in datum.blocks:
        window = list(range(start, start + size))
        rng.shuffle(window)
        for i, j in zip(range(start, start + size), window):
            images[i] = (j + 1) * (rng.choice((1, -1)) if kind == "C" else 1)
    return WeylElement(tuple(images))


def _weight_kinds(rng, datum):
    """(integral, fractional-coset, non-integral or None) random weights.

    The coset weight shifts each type A window by one fraction c (osp(3|2):
    its e coordinate by 1/2), which keeps it integral; the non-integral one
    moves a coordinate some even root touches by 1/3.  Data whose even roots
    touch no coordinate have no non-integral weight."""
    ints = [rng.randrange(-3, 4) for _ in range(datum.dim)]
    integral = Weight(ints)
    coset = list(ints)
    for kind, start, size in datum.blocks:
        if kind == "A":
            c = rng.choice(COSET_SHIFTS)
            for i in range(start, start + size):
                coset[i] += c
    if datum.family == "osp32":
        coset[1] += Fraction(1, 2)
    coset = Weight(coset)
    touched = sorted({i for r in datum.even_positive for i, c in enumerate(r.weight) if c})
    off = None
    if touched:
        off = Weight([c + (Fraction(1, 3) if i == touched[-1] else 0)
                      for i, c in enumerate(ints)])
        assert not is_integral(datum, off)
    assert is_integral(datum, integral) and is_integral(datum, coset)
    return integral, coset, off


def _zeta_specs(rng, datum):
    """none, all and two random proper subsets of the simple even roots."""
    k = len(datum.simple_even)
    specs = ["none", "all"]
    for _ in range(2):
        if k > 1:
            subset = sorted(rng.sample(range(1, k + 1), rng.randrange(1, k)))
            specs.append(",".join(map(str, subset)))
    return list(dict.fromkeys(specs))


def _weyl_datum_cases(rng, family, params):
    datum = build_root_datum(family, **params)
    flags = _flags(family, **params)
    lit = lambda w: datum.format_weight(w)
    cases = [["root-data", *flags]]
    kinds = [_weight_kinds(rng, datum) for _ in range(2)]
    weights = [w for triple in kinds for w in triple if w is not None]
    for lam in weights:
        for _ in range(2):
            w = _random_element(rng, datum).to_cycles()
            cases.append(["dot", *flags, "--w", w, f"--weight={lit(lam)}"])
    zetas = _zeta_specs(rng, datum)
    for integral, coset, off in kinds:
        for lam in (integral, coset):
            cases.append(["antidom", *flags, f"--weight={lit(lam)}"])
            cases.append(["stab", *flags, f"--weight={lit(lam)}"])
            for zeta in zetas:
                cases.append(["antidom", *flags, f"--weight={lit(lam)}", "--zeta", zeta])
                cases.append(["classify", *flags, "--zeta", zeta, f"--weight={lit(lam)}"])
    off = kinds[0][2]
    if off is not None:  # the refusals of a non-integral weight
        cases += [["antidom", *flags, f"--weight={lit(off)}"],
                  ["classify", *flags, "--zeta", "all", f"--weight={lit(off)}"],
                  ["stab", *flags, f"--weight={lit(off)}"],
                  ["upsilon", *flags, f"--nu={lit(off)}"]]
    # a singular weight: lam + rho0 = 0 is fixed by the whole group
    cases.append(["stab", *flags, f"--weight={lit(-datum.rho0)}"])
    if datum.family == "osp32":
        return cases + _osp32_in_x_cases(datum, flags)
    for zeta in zetas:
        nu = dominant_partner(datum, WhittakerCharacter.from_indices(datum, zeta))
        cases.append(["upsilon", *flags, f"--nu={lit(nu)}"])
        upsilon = upsilon_of(datum, nu)
        for integral, coset, off in kinds:
            # lam - nu integral, and its W_nu-anti-dominant representative
            member = antidominant_rep(datum, nu + integral, upsilon)[0]
            for lam in (nu + integral, member, coset, off):
                if lam is not None:
                    cases.append(["in-x", *flags, f"--nu={lit(nu)}", f"--weight={lit(lam)}"])
    # a non-dominant nu is refused
    lam = Weight([3 - 2 * i for i in range(datum.dim)]) - datum.rho0
    nu = antidominant_rep(datum, lam)[0]
    if nu != lam:
        cases.append(["upsilon", *flags, f"--nu={lit(nu)}"])
        cases.append(["in-x", *flags, f"--nu={lit(nu)}", f"--weight={lit(nu)}"])
    if off is not None:
        cases.append(["in-x", *flags, f"--nu={lit(off)}", f"--weight={lit(off)}"])
    return cases


def _osp32_in_x_cases(datum, flags):
    """X(nu) of osp(3|2): the grid lam + rho in (-1/2 - Z_{>=0})^2 at
    nu = -rho0, points off it, and a refused nu."""
    nu = datum.format_weight(-datum.rho0)
    cases = [["upsilon", *flags, f"--nu={nu}"]]
    for a, b in [("-1/2", "-1/2"), ("-3/2", "-5/2"), ("1/2", "-1/2"), ("-1/2", "0"),
                 ("-2", "-3/2"), ("-5/2", "1/3")]:
        lam = Weight([rational(a), rational(b)]) - datum.rho
        cases.append(["in-x", *flags, f"--nu={nu}", f"--weight={datum.format_weight(lam)}"])
    cases.append(["in-x", *flags, "--nu=0,0", "--weight=0,0"])
    return cases


WEYL_REFUSALS = [
    ["root-data", "--family", "gl", "--m", "1"],
    ["root-data", "--family", "p", "--n", "1"],
    ["root-data", "--family", "osp2", "--n", "0"],
    ["root-data", "--family", "reductive", "--factors", "B2"],
    ["root-data", "--family", "reductive"],
    ["root-data", "--family", "q", "--n", "2"],  # usage: exit 2
    ["dot", "--family", "p", "--n", "2", "--weight", "0,0"],  # usage: no --w
    ["dot", "--family", "p", "--n", "2", "--w", "(1 -1)", "--weight", "0,0"],
    ["dot", "--family", "gl", "--m", "1", "--n", "1", "--w", "(1 2)", "--weight", "0,0"],
    ["dot", "--family", "p", "--n", "2", "--w", "(1 3)", "--weight", "0,0"],
    ["dot", "--family", "p", "--n", "3", "--w", "(1 1)", "--weight", "0,0,0"],
    ["dot", "--family", "p", "--n", "3", "--w", "(1 2 1)", "--weight", "0,0,0"],
    ["dot", "--family", "p", "--n", "3", "--w", "(1 2)(2 3)", "--weight", "0,0,0"],
    ["dot", "--family", "osp2", "--n", "2", "--w", "(1 -2)", "--weight=0;0,0"],
    ["dot", "--family", "p", "--n", "2", "--w", "(1 2)", "--weight", "0,0,0"],
    ["dot", "--family", "p", "--n", "2", "--w", "(1 2)", "--weight", "1/0,0"],
    ["dot", "--family", "p", "--n", "2", "--w", "(1 2)", "--weight", "a,0"],
    ["antidom", "--family", "p", "--n", "2", "--weight", "0,0", "--zeta", "3"],
    ["antidom", "--family", "p", "--n", "2", "--weight", "0,0", "--zeta", "x"],
    ["classify", "--family", "p", "--n", "2", "--weight", "0,0"],  # usage: no --zeta
    ["classify", "--family", "gl", "--m", "2", "--n", "1", "--zeta", "2", "--weight=0,0|0"],
    ["stab", "--family", "reductive", "--factors", "A2", "--weight", "0,0"],
    ["upsilon", "--family", "p", "--n", "2", "--nu", "0"],
    ["in-x", "--family", "p", "--n", "2", "--nu", "0,0", "--weight", "0,0,0"],
    ["in-x", "--family", "osp2", "--n", "1", "--nu=0;0", "--weight=0;1/0"],
]


# literal forms the grammar accepts beyond `p/q`: the decimal, digit-group
# and exponent forms Fraction reads, and the `--zeta` spellings 0, full
# and the empty string
LITERAL_FORMS = [
    ["dot", "--family", "gl", "--m", "2", "--n", "1", "--w", "(1 2)", "--weight=0.5,-1/2|0"],
    ["dot", "--family", "gl", "--m", "2", "--n", "1", "--w", "(1 2)", "--weight=1_0,0|0"],
    ["dot", "--family", "gl", "--m", "2", "--n", "1", "--w", "(1 2)", "--weight= 1e1 ,0|0"],
    ["classify", "--family", "reductive", "--factors", "A2", "--zeta", "0", "--weight=2,0,1"],
    ["classify", "--family", "reductive", "--factors", "A2", "--zeta", "full",
     "--weight=2,0,1"],
    ["classify", "--family", "reductive", "--factors", "A2", "--zeta", "", "--weight=2,0,1"],
    ["antidom", "--family", "osp2", "--n", "2", "--weight=0.5;1e1,1_0", "--zeta", "full"],
]

# exponents are bounded by sys.get_int_max_str_digits() (4300) in absolute
# value, and refused before their integer is built
EXPONENT_BOUNDS = [
    ["dot", "--family", "p", "--n", "2", "--w", "(1 2)", "--weight=1e10000000,0"],
    ["dot", "--family", "p", "--n", "2", "--w", "(1 2)", "--weight=1e-10000000,0"],
    ["stab", "--family", "p", "--n", "2", "--weight=1e4300,0"],
    ["stab", "--family", "p", "--n", "2", "--weight=1e4301,0"],
    ["stab", "--family", "p", "--n", "2", "--weight=1e-4_301,0"],
]

WEYL_COMMANDS = ("root-data", "dot", "antidom", "stab", "classify", "upsilon", "in-x")


def _weyl_cases(rng):
    cases = []
    for k, (family, params) in enumerate(WEYL_DATA):
        datum_cases = _weyl_datum_cases(rng, family, params)
        # text output: the datum's last case, and the first case of one
        # command per datum, in turn
        command = WEYL_COMMANDS[k % len(WEYL_COMMANDS)]
        for argv in (datum_cases[-1], next(a for a in datum_cases if a[0] == command)):
            argv += ["--format", "text"]
        cases += datum_cases
    return cases + WEYL_REFUSALS + LITERAL_FORMS + EXPONENT_BOUNDS


def _argvs(name):
    if name == "weyl_cli":
        return _weyl_cases(random.Random(20211108))
    rng = random.Random(20211008 if name == "kl_cli" else 20211018)
    if name == "kl_cli":
        return _klpoly_cases(rng) + _mult_cases(rng) + REFUSALS
    return (_typicality_cases(rng) + _block_label_cases(rng) + _box_cases()
            + _same_block_cases(rng) + _coset_label_cases(rng))


def record(names=CORPORA) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        cases = []
        for argv in _argvs(name):
            code, stdout, stderr = _invoke(argv)
            cases.append({"argv": argv, "exit": code, "stdout": stdout})
            if name == "weyl_cli" or argv[0] == "enumerate-block":
                cases[-1]["stderr"] = stderr
        (GOLDEN / f"{name}.json").write_text(json.dumps(cases, indent=1) + "\n",
                                             encoding="utf-8")


if __name__ == "__main__":
    record(sys.argv[1:] or CORPORA)
