import doctest
from fractions import Fraction

import pytest

from superlink import weights
from superlink.weights import Weight, format_rational, format_weight, parse_weight, rational


def test_rational_round_trip():
    for text in ["3", "-1", "1/2", "-3/2", "0"]:
        assert format_rational(rational(text)) == text


def test_format_rational_takes_fractions_and_ints():
    for value, text in [(0, "0"), (7, "7"), (-7, "-7"), (Fraction(0, 5), "0"),
                        (Fraction(6, 4), "3/2"), (Fraction(-6, 4), "-3/2"),
                        (Fraction(4, 2), "2"), (Fraction(-4, -2), "2"),
                        (Fraction(3, -9), "-1/3"), (Fraction(-12), "-12")]:
        assert format_rational(value) == text


def test_parse_accepts_block_separators():
    w = parse_weight("3,-1|2")
    assert w.coords == (Fraction(3), Fraction(-1), Fraction(2))
    w = parse_weight("0;1/2,-3/2")
    assert w.coords == (Fraction(0), Fraction(1, 2), Fraction(-3, 2))


def test_parse_dim_check():
    with pytest.raises(ValueError):
        parse_weight("1,2", dim=3)
    with pytest.raises(ValueError):
        parse_weight("")


def test_format_with_separators():
    w = Weight([3, -1, 2])
    assert format_weight(w, [(2, "|")]) == "3,-1|2"
    assert parse_weight(format_weight(w, [(2, "|")])) == w
    assert format_weight(Weight([0, "1/2", 2, -3]), [(1, ";"), (3, "|")]) == "0;1/2,2|-3"
    # a marker outside positions 1..len-1 has no comma to replace
    assert format_weight(Weight([1, 2]), [(0, "|"), (2, "|")]) == "1,2"
    assert format_weight(Weight([5]), [(1, ";")]) == "5"


def test_arithmetic_exact():
    a = Weight(["1/3", "2/3"])
    b = Weight(["1/6", "-2/3"])
    assert (a + b).coords == (Fraction(1, 2), Fraction(0))
    assert a - a == Weight([0, 0])
    assert (-a).coords == (Fraction(-1, 3), Fraction(-2, 3))
    assert a.scale(Fraction(3)).coords == (Fraction(1), Fraction(2))


def test_weights_hashable_and_ordered():
    a, b = Weight([0, 1]), Weight([1, 0])
    assert len({a, b, Weight([0, 1])}) == 2
    assert sorted([b, a]) == [a, b]


def test_weight_hash_computed_once(monkeypatch):
    """The first hash of a weight is kept: a second one hashes no Fraction,
    and equal weights built apart still hash equal."""
    w = Weight([-3, 0, Fraction(2, 3)])
    first = hash(w)
    calls = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda self: calls.append(self) or real(self))
    assert hash(w) == first and calls == []
    twins = [Weight(["-3", 0, "2/3"]), Weight._of(w.coords), parse_weight("-3,0|2/3")]
    for twin in twins:
        assert twin == w and hash(twin) == first
    assert len(calls) == 3 * len(twins)
    assert {w: 1}[twins[0]] == 1 and len(calls) == 3 * len(twins)


def test_immutable():
    w = Weight([1])
    with pytest.raises(AttributeError):
        w.coords = (Fraction(2),)


def test_exponent_literals_are_bounded():
    """An exponent beyond sys.get_int_max_str_digits() in absolute value is
    refused before its integer is built, as promptly as a malformed literal;
    the bound itself is accepted."""
    import sys
    import time

    limit = sys.get_int_max_str_digits()
    for text in ("1e10000000", "1e-10000000", "-2.5E+10000000", f"1e{limit + 1}",
                 f"1e-{limit + 1}", f"1e{limit + 1:_}"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent outside"):
            rational(text)
        assert time.perf_counter() - start < 1, text
    assert rational(f"1e{limit}") == 10 ** limit
    assert rational(f" 3e-{limit} ") == Fraction(3, 10 ** limit)
    assert rational("1e1") == 10


def test_docstring_examples_hold():
    """The five `>>>` examples in the weights docstrings run and hold."""
    results = doctest.testmod(weights)
    assert (results.attempted, results.failed) == (5, 0)


def test_empty_coordinate_is_refused():
    """An empty field is malformed, not dropped: `1,,2` never reads as `1,2`.
    A literal with no field at all keeps its own refusal."""
    for text in ("1,,2", ",1|2,", "1,2,", "1|;2", "1, ,2"):
        with pytest.raises(ValueError) as err:
            parse_weight(text)
        assert str(err.value) == f"empty coordinate in weight literal {text!r}"
    with pytest.raises(ValueError, match="^empty weight literal: '  '$"):
        parse_weight("  ")
