"""Tables derived from a root datum are kept on that datum by root_data's
`_derived`: they die with the datum, and a lookup never compares two data."""
import ast
import gc
import inspect
import weakref
from pathlib import Path

import pytest

import superlink
from superlink import (RootDatum, WhittakerCharacter, antidominant_rep, build_root_datum,
                       is_antidominant, orbit_dot, verma_series_rank_small, whittaker_length)
from superlink import kl, oracle, root_data, verma_oracle, weyl
from superlink.errors import CapExceededError
from superlink.weights import Weight
from superlink.weyl import WeylElement, length, longest_element, reduced_word


def test_tables_die_with_their_datum():
    """Every table a query derives sits in the datum's memo, and nothing
    else holds the datum: once it is dropped, it and its KL memo are freed."""
    datum = build_root_datum("reductive", factors="A2")
    lam = Weight([-2, 0, 2])
    zeta = WhittakerCharacter.from_indices(datum, "1")
    assert whittaker_length(datum, lam, zeta) == 1
    assert len(orbit_dot(datum, lam)) == 6
    assert is_antidominant(datum, lam, datum.simple_even[:1])
    assert length(datum, WeylElement((2, 1, 3))) == 1
    assert len(verma_series_rank_small(datum, lam).entries) == 36
    assert {key[0] for key in datum.__dict__["_derived"]} == {
        root_data._IntegerFrame, weyl._Parabolic, weyl._Index, kl._KLMemo, verma_oracle._Frame}
    refs = [weakref.ref(datum), weakref.ref(datum.__dict__["_derived"][(kl._KLMemo,)])]
    del datum, zeta
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_lookups_never_compare_data(monkeypatch):
    """With the tables of one gl(2|2) and one A2 built, the same queries on
    equal but freshly built data make no RootDatum.__eq__ call."""
    def queries(gl, a2):
        lam = gl.parse_weight("1,0|0,-1")
        orbit_dot(gl, lam)
        antidominant_rep(gl, lam)
        is_antidominant(gl, lam, gl.simple_even[:1])
        length(gl, WeylElement((2, 1, 3, 4)))
        kl._tables(gl)
        verma_series_rank_small(a2, Weight([-2, 0, 2]))

    def fresh():
        return build_root_datum("gl", m=2, n=2), build_root_datum("reductive", factors="A2")

    queries(*fresh())
    calls = []
    eq = RootDatum.__eq__
    monkeypatch.setattr(RootDatum, "__eq__",
                        lambda self, other: calls.append(other) or eq(self, other))
    queries(*fresh())
    assert calls == []


def test_functools_caches_left_in_src():
    """The only function caches left are the CLI's parser and root data;
    the integer frame's property, its attrgetter, the KL group registry and
    the box oracle's (datum, box) frame cache are gone, and neither
    WeightBox nor RootDatum hashes by hand."""
    package = Path(superlink.__file__).resolve().parent
    found = set()
    for path in package.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(stmt)}
            if names & {"lru_cache", "cache"}:
                found.add(f"{path.stem}.{getattr(stmt, 'name', None)}")
    assert found == {"cli._parser", "cli._root_datum"}
    for cls in (oracle.WeightBox, RootDatum):  # the dataclass hash only
        assert "def __hash__" not in inspect.getsource(cls)
    assert not hasattr(RootDatum, "_frame")
    assert not hasattr(root_data, "attrgetter")
    assert not hasattr(kl, "_GROUPS")


def test_one_group_index_per_datum():
    """The parabolic queries and the KL group read one index of the whole
    group, kept under the key (_Index,); the group API carries no parabolic
    subset and no copy of weyl's length, reduced_word or longest_element."""
    datum = build_root_datum("reductive", factors="A1,C2")
    first = datum.simple_even[:1]
    assert length(datum, WeylElement((2, 1, 3, 4)), first) == 1
    assert longest_element(datum, first) == WeylElement((2, 1, 3, 4))
    assert reduced_word(datum, WeylElement((1, 2, 3, -4))) == [datum.simple_even[2]]
    W = kl.FiniteWeylGroup(datum)
    assert W.order == W._index.n == 16
    keys = [key for key in datum.__dict__["_derived"] if weyl._Index in key]
    assert keys == [(weyl._Index,)]
    assert W._index is datum.__dict__["_derived"][(weyl._Index,)]
    assert list(inspect.signature(weyl._Index).parameters) == ["datum"]
    assert list(inspect.signature(kl.FiniteWeylGroup).parameters) == ["datum", "cap"]
    assert not [name for name in ("sub", "simple", "length", "word", "longest")
                if hasattr(W, name)]


def test_group_order_computed_once_per_datum(monkeypatch):
    """The parabolic queries and a new group read the whole group's order
    from the datum's memo: the `_runs` closure behind it runs once."""
    calls = []
    runs = weyl._runs
    monkeypatch.setattr(weyl, "_runs", lambda *args: calls.append(args) or runs(*args))
    datum = build_root_datum("gl", m=3, n=3)
    w0 = longest_element(datum)
    assert [length(datum, w0) for _ in range(3)] == [6, 6, 6]
    assert len(reduced_word(datum, w0)) == 6
    assert kl.FiniteWeylGroup(datum).order == 36
    assert len(calls) == 1


def test_parabolic_windows_computed_once_per_subset(monkeypatch):
    """Every query on a parabolic subgroup W_J reads J's windows off one
    table on the datum: ten queries with and without zeta's support, run
    three times, compute the `_runs` windows once per distinct J."""
    calls = []
    runs = weyl._runs
    monkeypatch.setattr(weyl, "_runs", lambda *args: calls.append(args) or runs(*args))
    datum = build_root_datum("reductive", factors="A1,C2")
    zeta = WhittakerCharacter.from_indices(datum, "1,3")
    lam, sub, rep = Weight([2, 0, -1, 3]), zeta.support, Weight([-1, 3, -1, -5])
    for _ in range(3):
        assert antidominant_rep(datum, lam, sub)[0] == rep
        assert superlink.classify_simple(datum, lam, zeta).rep == rep
        assert not is_antidominant(datum, lam, sub)
        assert len(orbit_dot(datum, lam, sub)) == 4
        assert (superlink.weyl_order(datum), superlink.weyl_order(datum, sub)) == (16, 4)
        assert superlink.dominant_partner(datum, zeta) == Weight([-1, 0, -1, -1])
        assert superlink.gamma_summation_set(datum, lam, zeta) == [rep]
        assert superlink.block_label(datum, lam).payload == (-1, 3, -6, -2)
        assert whittaker_length(datum, lam, zeta) == 3
    assert len(calls) == 2


def test_group_cap_refusal_is_worded_once():
    """One weyl helper words `|W| = N exceeds the cap C`; the parabolic
    queries, a new group and the KL tables all raise through it."""
    package = Path(superlink.__file__).resolve().parent
    assert sum(path.read_text(encoding="utf-8").count("exceeds the cap")
               for path in package.glob("*.py")) == 1
    a3 = build_root_datum("reductive", factors="A3")
    for refuse in (lambda: kl.FiniteWeylGroup(a3, cap=23), lambda: kl._tables(a3, 23)):
        with pytest.raises(CapExceededError, match=r"^\|W\| = 24 exceeds the cap 23$"):
            refuse()
