"""Byte-for-byte replay of the Weyl-group structure queries.

`golden/weyl_group.json` pins, per datum, the order of
`FiniteWeylGroup.elements()` with each element's `word` and the group's
`longest`, and, for every parabolic subset of Pi_0 (plus Pi_0 in reversed
order, which changes the letter choice of `reduced_word`):

* `longest_element(datum, sub)`;
* `length(datum, w, sub)` for every element w of the full group, so the
  elements outside W_sub are pinned too;
* `reduced_word(datum, w, sub)` as Pi_0 indices for every w in W_sub, and
  null where it refuses w outside W_sub.

Elements are stored in signed-cycle notation.  Re-record the corpus (only
when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_weyl_group.py
"""
import itertools
import json
from pathlib import Path

import pytest

from superlink import (UnsupportedInputError, build_root_datum, longest_element, reduced_word,
                       weyl_order)
from superlink.kl import FiniteWeylGroup
from superlink.weyl import WeylElement, length
from test_weyl_properties import DATA

CORPUS = Path(__file__).resolve().parent / "golden" / "weyl_group.json"
SPECS = [dict(family=family, **kw) for family, kw in DATA] + [
    {"family": "p", "n": 4}, {"family": "reductive", "factors": "A3"},
    {"family": "reductive", "factors": "C3"}, {"family": "reductive", "factors": "A2xC2"}]


def _subsets(rank: int) -> list[list[int]]:
    subs = [list(c) for k in range(rank + 1) for c in itertools.combinations(range(rank), k)]
    return subs + [list(reversed(range(rank)))] if rank > 1 else subs


def _answer(spec: dict) -> dict:
    datum = build_root_datum(**spec)
    W = FiniteWeylGroup(datum)
    elements = W.elements()
    pi0 = datum.simple_even
    out = {"elements": [w.to_cycles() for w in elements],
           "words": [list(W.word(w)) for w in elements],
           "longest": W.longest().to_cycles(),
           "subsets": []}
    for idx in _subsets(len(pi0)):
        sub = [pi0[i] for i in idx]
        words = []
        for w in elements:
            try:
                words.append([pi0.index(r) for r in reduced_word(datum, w, sub)])
            except UnsupportedInputError:
                words.append(None)
        out["subsets"].append({"sub": idx,
                               "longest": longest_element(datum, sub).to_cycles(),
                               "lengths": [length(datum, w, sub) for w in elements],
                               "words": words})
    return out


def _load():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _load() if CORPUS.exists() else [],
                         ids=lambda c: "-".join(str(v) for v in c["datum"].values()))
def test_replay(case):
    expected = {k: v for k, v in case.items() if k != "datum"}
    assert _answer(case["datum"]) == expected


def test_corpus_coverage():
    cases = _load()
    assert [c["datum"] for c in cases] == SPECS
    for case in cases:
        datum = build_root_datum(**case["datum"])
        rank = len(datum.simple_even)
        assert [s["sub"] for s in case["subsets"]] == _subsets(rank)
        for s in case["subsets"]:
            # exactly the elements of W_sub have a word, the identity first
            in_sub = [w is not None for w in s["words"]]
            assert in_sub[0]
            assert sum(in_sub) == weyl_order(datum, [datum.simple_even[i] for i in s["sub"]])


def test_words_multiply_back():
    """Each recorded word is reduced and multiplies back to its element."""
    for case in _load():
        datum = build_root_datum(**case["datum"])
        W = FiniteWeylGroup(datum)
        refl = W.reflections
        for s in case["subsets"]:
            for cycles, word, ell in zip(case["elements"], s["words"], s["lengths"]):
                if word is None:
                    continue
                w = WeylElement.identity(datum.dim)
                for i in word:
                    w = w.compose(refl[i])
                assert w.to_cycles() == cycles and len(word) == ell


# -- recording ------------------------------------------------------------------

def record() -> None:
    cases = [{"datum": spec, **_answer(spec)} for spec in SPECS]
    lines = ",\n".join(json.dumps(case, separators=(",", ":")) for case in cases)
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    record()
