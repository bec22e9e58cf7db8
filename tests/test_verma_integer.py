"""The Shapovalov oracle's integer arithmetic against its Fraction references
(tests/verma_reference.py): the Gram matrices entry for entry, the
fraction-free rank, and the PBW monomial and action tables a datum's frame
keeps across calls."""
from collections import Counter
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import verma_reference  # noqa: E402
from superlink import build_root_datum, is_integral  # noqa: E402
from superlink import verma_oracle  # noqa: E402
from superlink.errors import UnsupportedInputError  # noqa: E402
from superlink.verma_oracle import VermaModel, _rank  # noqa: E402
from superlink.weights import Weight  # noqa: E402

TYPES = ("A1", "A1xA1", "A2", "C2", "A1xC1")


def _betas(datum, height):
    """Every sum of at most `height` simple roots, as an int tuple."""
    simples = [tuple(int(c) for c in r.weight) for r in datum.simple_even]
    out = {(0,) * datum.dim}
    for _ in range(height):
        out |= {tuple(a + b for a, b in zip(n, s)) for n in out for s in simples}
    return sorted(out)


def _half_shift(datum):
    """1/2 on every coordinate of a type A block: central, so it keeps every
    coroot pairing and every Gram entry."""
    return Weight([Fraction(1, 2) if any(kind == "A" and start <= i < start + size
                                         for kind, start, size in datum.blocks) else 0
                   for i in range(datum.dim)])


def _assert_grams_match(datum, lam, height=3):
    """The model's Gram matrices equal the reference's at an integral lam,
    and are ints; any other lam is refused."""
    if not is_integral(datum, lam):
        with pytest.raises(UnsupportedInputError, match="needs an integral weight"):
            VermaModel(datum, lam)
        return
    model = VermaModel(datum, lam)
    reference = verma_reference.FractionVerma(datum, lam)
    for n in _betas(datum, height):
        gram = model._gram(n)
        assert gram == reference.gram(n)
        assert all(type(v) is int for row in gram for v in row)
    # no Fraction coefficient anywhere in the model's action: its shifted
    # Cartan values are ints
    assert all(type(c) is int for out in model._act_cache.values() for c in out.values())


@pytest.mark.parametrize("factors", TYPES)
def test_integer_gram_matches_reference(factors, hypothesis_home):
    datum = build_root_datum("reductive", factors=factors)
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    @settings(database=None, derandomize=True, max_examples=12, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=datum.dim, max_size=datum.dim),
           st.lists(coordinate, min_size=datum.dim, max_size=datum.dim),
           st.sampled_from(["integral", "half", "rational"]))
    def agrees(coords, rational, kind):
        # coords - rho0 is integral, with half-integer type A coordinates
        # wherever rho0 has them
        lam = Weight(coords) - datum.rho0
        if kind == "half":
            lam += _half_shift(datum)
        elif kind == "rational":
            lam = Weight(rational)
        _assert_grams_match(datum, lam)

    agrees()


@pytest.mark.parametrize("factors, lam", [
    ("C2", [Fraction(1, 2), Fraction(-2, 3)]), ("C2", [-2, -1]),
    ("A2", [Fraction(1, 2), Fraction(-1, 3), 0]), ("A2", [-2, 0, 2]),
    ("A1", [Fraction(5, 2), Fraction(-1, 2)])])
def test_integer_gram_matches_reference_on_fixed_weights(factors, lam):
    """The generic rational weights of the Gram symmetry spot check, which
    are refused, and integral ones with and without a fractional central
    part."""
    _assert_grams_match(build_root_datum("reductive", factors=factors), Weight(lam))


def _matrices():
    entry = st.integers(-4, 4)
    full = st.integers(1, 5).flatmap(lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)))

    @st.composite
    def deficient(draw):
        # an n x k times k x m product has rank at most k
        n, m, k = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
        left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
        right = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
        return [[sum((left[i][t] * right[t][j] for t in range(k)), 0) for j in range(m)]
                for i in range(n)]

    zero = st.tuples(st.integers(1, 5), st.integers(1, 5)).map(
        lambda s: [[0] * s[1] for _ in range(s[0])])
    return st.one_of(full, deficient(), zero)


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(_matrices())
def test_fraction_free_rank_matches_reference(rows):
    before = [list(r) for r in rows]
    assert _rank(rows) == verma_reference.rank(rows)
    assert rows == before  # the caller's rows are not touched


def test_rank_is_exact_on_large_entries():
    # a float elimination would lose these: rank 1, then rank 2
    big = 10 ** 30
    assert _rank([[big, big + 1], [2 * big, 2 * big + 2]]) == 1
    assert _rank([[big, big + 1], [big + 1, big + 2]]) == 2


def test_one_monomial_search_per_distinct_beta(monkeypatch):
    """The models of a datum share its frame's PBW table: each requested
    weight space is searched once, whichever model or call asks first."""
    requests, searches = [], Counter()
    monomials, expand = verma_oracle._Frame.monomials, verma_oracle._Frame._expand

    def requested(self, n):
        requests.append(n)
        return monomials(self, n)

    def searched(self, n, max_idx):
        searches[n, max_idx] += 1
        return expand(self, n, max_idx)

    monkeypatch.setattr(verma_oracle._Frame, "monomials", requested)
    monkeypatch.setattr(verma_oracle._Frame, "_expand", searched)
    datum = build_root_datum("reductive", factors="A2")
    table = verma_oracle.verma_multiplicities(datum, Weight([-2, 0, 2]))
    assert len(table) == 36
    top = len(datum.even_positive) - 1
    distinct = set(requests)
    assert len(distinct) < len(requests)  # the six models share weight spaces
    assert max(searches.values()) == 1
    assert {n for n, max_idx in searches if max_idx == top} >= distinct
    # a second call on the datum finds every weight space in the table
    asked, searched = len(requests), dict(searches)
    assert verma_oracle.verma_multiplicities(datum, Weight([-2, 0, 2])) == table
    assert len(requests) > asked and searches == searched


@pytest.mark.parametrize("factors", ("A2", "C2", "A1xA1"))
def test_filled_tables_answer_as_a_fresh_datum(factors, hypothesis_home):
    """The frame's tables, filled at one lam, give another lam the answer a
    fresh datum gives it, and the Gram matrices of its Fraction reference."""
    fresh = build_root_datum("reductive", factors=factors)
    coords = st.lists(st.integers(-2, 2), min_size=fresh.dim, max_size=fresh.dim)

    @settings(database=None, derandomize=True, max_examples=15, deadline=None)
    @given(coords, coords)
    def agrees(first, second):
        # lam + rho0 has integer coordinates, so lam is integral
        datum = build_root_datum("reductive", factors=factors)
        lam1, lam2 = (Weight(c) - datum.rho0 for c in (first, second))
        verma_oracle.verma_multiplicities(datum, lam1)
        assert verma_oracle.verma_multiplicities(datum, lam2) == \
            verma_oracle.verma_multiplicities(build_root_datum("reductive", factors=factors),
                                              lam2)
        _assert_grams_match(datum, lam2)

    agrees()
