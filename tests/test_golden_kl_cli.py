"""Byte-for-byte replay of recorded `klpoly` / `mult` CLI invocations.

The corpus in `golden/kl_cli.json` pins the stdout and exit code of each
invocation.  Re-record it (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_kl_cli.py
"""
import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from superlink.cli import main

CORPUS = Path(__file__).resolve().parent / "golden" / "kl_cli.json"


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _load():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


# an absent corpus fails test_corpus_covers_refusals, not the import (which
# the recorder needs)
@pytest.mark.parametrize("case", _load() if CORPUS.exists() else [], ids=lambda c: " ".join(c["argv"]))
def test_replay(case):
    code, stdout = _invoke(case["argv"])
    assert (code, stdout) == (case["exit"], case["stdout"])


def test_corpus_covers_refusals():
    cases = _load()
    assert sum(c["exit"] == 3 for c in cases) >= 3
    assert {c["argv"][0] for c in cases} == {"klpoly", "mult"}


# -- recording ----------------------------------------------------------------

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
    from superlink import build_root_datum, orbit_dot
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


def record() -> None:
    rng = random.Random(20211008)
    argvs = _klpoly_cases(rng) + _mult_cases(rng) + REFUSALS
    cases = []
    for argv in argvs:
        code, stdout = _invoke(argv)
        cases.append({"argv": argv, "exit": code, "stdout": stdout})
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
