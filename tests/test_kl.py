from fractions import Fraction

import pytest

from superlink import (MissingTableEntryError, SuperlinkError, UnsupportedInputError,
                       WhittakerCharacter, builtin_verma_table, gamma_summation_set,
                       verma_mult, whittaker_length, whittaker_mult)
from superlink import kl
from superlink.kl import (FiniteWeylGroup, KLPolynomial, bruhat_leq, kl_polynomial,
                          parse_mult_table)
from superlink.weights import Weight
from superlink.weyl import dot, is_dominant, length, longest_element


def test_polynomial_basics():
    p = KLPolynomial.of((1, 1, 0))
    assert p.coeffs == (1, 1)
    assert str(p) == "1 + q"
    assert sum(p.coeffs) == 2  # P(1)
    assert KLPolynomial.of(()).is_zero
    assert str(KLPolynomial.of((1, 0, 2))) == "1 + 2q^2"


def test_bruhat_examples():
    S3 = FiniteWeylGroup.symmetric(3)
    e = S3.identity
    s1, s2 = S3.reflections
    for w in S3.elements():
        assert bruhat_leq(S3, e, w)
    assert bruhat_leq(S3, s1, s1.compose(s2))
    assert not bruhat_leq(S3, s1, s2)
    w0 = longest_element(S3.datum)
    assert all(bruhat_leq(S3, x, w0) for x in S3.elements())


def test_kl_s3_all_one():
    S3 = FiniteWeylGroup.symmetric(3)
    for x in S3.elements():
        for w in S3.elements():
            p = kl_polynomial(S3, x, w)
            if bruhat_leq(S3, x, w):
                assert p.coeffs == (1,)
            else:
                assert p.is_zero


def test_kl_s4_pinned_pair():
    S4 = FiniteWeylGroup.symmetric(4)
    s = S4.reflections
    w = s[1].compose(s[0]).compose(s[2]).compose(s[1])  # 3412
    assert kl_polynomial(S4, s[1], w).coeffs == (1, 1)
    assert kl_polynomial(S4, S4.identity, w).coeffs == (1, 1)


def test_kl_s4_full_nontrivial_set():
    """Both singular Schubert classes of S4 and nothing else carry 1 + q."""
    S4 = FiniteWeylGroup.symmetric(4)
    nontrivial = {}
    for x in S4.elements():
        for w in S4.elements():
            p = kl_polynomial(S4, x, w)
            if not p.is_zero and p.coeffs != (1,):
                nontrivial[(x.images, w.images)] = p.coeffs
    assert all(c == (1, 1) for c in nontrivial.values())
    assert len(nontrivial) == 6
    w3412 = (3, 4, 1, 2)
    w4231 = (4, 2, 3, 1)
    xs = {w: sorted(x for (x, ww) in nontrivial if ww == w) for w in (w3412, w4231)}
    assert xs[w3412] == [(1, 2, 3, 4), (1, 3, 2, 4)]
    assert xs[w4231] == [(1, 2, 3, 4), (1, 2, 4, 3), (2, 1, 3, 4), (2, 1, 4, 3)]


def test_kl_dihedral_all_one():
    C2 = FiniteWeylGroup.type_c(2)
    for x in C2.elements():
        for w in C2.elements():
            if bruhat_leq(C2, x, w):
                assert kl_polynomial(C2, x, w).coeffs == (1,)


def test_kl_constant_term_and_degree_bound():
    for W in (FiniteWeylGroup.symmetric(4), FiniteWeylGroup.type_c(2)):
        for x in W.elements():
            for w in W.elements():
                p = kl_polynomial(W, x, w)
                if bruhat_leq(W, x, w):
                    assert p.coeffs[0] == 1
                    if x != w:
                        assert p.degree <= (length(W.datum, w) - length(W.datum, x) - 1) // 2


def _antidominant_regular(datum):
    return {"A1": Weight([-1, 1]), "A2": Weight([-2, 0, 2]),
            "C2": Weight([-4, -2])}[datum.describe()]


def test_verma_mult_rank1(red_a1):
    lam = _antidominant_regular(red_a1)
    W = FiniteWeylGroup(red_a1)
    e, s = W.identity, W.reflections[0]
    assert verma_mult(red_a1, lam, e, e) == 1
    assert verma_mult(red_a1, lam, s, e) == 1
    assert verma_mult(red_a1, lam, e, s) == 0
    assert verma_mult(red_a1, lam, s, s) == 1


def test_verma_mult_validations(red_a1, gl21):
    W = FiniteWeylGroup(red_a1)
    e = W.identity
    e_gl = FiniteWeylGroup(gl21).identity
    with pytest.raises(UnsupportedInputError) as err:  # -2,0|0: atypical, regular, anti-dominant
        verma_mult(gl21, Weight([-2, 0, 0]), e_gl, e_gl)
    assert str(err.value).startswith("built-in multiplicity tables exist only for reductive data")
    with pytest.raises(UnsupportedInputError) as err:
        W.from_word([5])
    assert str(err.value) == "word letter 5 out of range 0..0"
    with pytest.raises(UnsupportedInputError):
        verma_mult(red_a1, Weight([0, 1]), e, e)  # singular
    with pytest.raises(UnsupportedInputError):
        verma_mult(red_a1, Weight([1, -1]), e, e)  # dominant, not anti-dominant
    with pytest.raises(UnsupportedInputError):
        verma_mult(red_a1, Weight([Fraction(1, 3), 0]), e, e)


def test_super_refusal_asks_for_a_table_only_where_one_is_taken(gl21):
    """verma_mult and builtin_verma_table take no table, so their refusal
    on a super datum offers none; whittaker_mult and whittaker_length take
    one, and their refusal says so."""
    lam = Weight([-2, 0, 0])  # atypical, regular, anti-dominant
    e = FiniteWeylGroup(gl21).identity
    zeta = WhittakerCharacter.from_indices(gl21, "none")
    refusal = "built-in multiplicity tables exist only for reductive data"
    for call, text in [(lambda: verma_mult(gl21, lam, e, e), refusal),
                       (lambda: builtin_verma_table(gl21, lam), refusal),
                       (lambda: whittaker_mult(gl21, lam, lam, zeta),
                        refusal + "; supply a table for super families"),
                       (lambda: whittaker_length(gl21, lam, zeta),
                        refusal + "; supply a table for super families")]:
        with pytest.raises(UnsupportedInputError) as err:
            call()
        assert str(err.value) == text


def test_builtin_table_reductive_only(p2, red_a2):
    with pytest.raises(UnsupportedInputError):
        builtin_verma_table(p2, Weight([0, 0]))
    with pytest.raises(UnsupportedInputError) as err:  # its own text, not weyl's
        builtin_verma_table(red_a2, Weight([Fraction(1, 2), 0, 0]))
    assert str(err.value) == "multiplicities need an integral weight"


def test_gamma_summation_singleton(red_a2, p3):
    for datum in (red_a2, p3):
        zall = WhittakerCharacter.from_indices(datum, "all")
        z0 = WhittakerCharacter.from_indices(datum, "none")
        for coords in [(0, 0, 0), (1, 0, -1), (-2, 1, 0)]:
            mu = Weight(coords)
            assert len(gamma_summation_set(datum, mu, zall)) == 1
            assert gamma_summation_set(datum, mu, z0) == [mu]


def test_whittaker_mult_degenerates_at_zero(red_a2):
    lam0 = _antidominant_regular(red_a2)
    z0 = WhittakerCharacter.from_indices(red_a2, "none")
    table = builtin_verma_table(red_a2, lam0)
    for (l, gamma), value in table.entries.items():
        if l == lam0:
            assert whittaker_mult(red_a2, lam0, gamma, z0, table) == value


def test_kostant_simplicity(red_a1, red_a2, red_c2):
    for datum in (red_a1, red_a2, red_c2):
        lam0 = _antidominant_regular(datum)
        w0 = longest_element(datum)
        dom = dot(datum, w0, lam0)
        assert is_dominant(datum, dom)
        zall = WhittakerCharacter.from_indices(datum, "all")
        assert whittaker_length(datum, dom, zall) == 1
        # an anti-dominant base is already simple for every zeta
        z0 = WhittakerCharacter.from_indices(datum, "none")
        assert whittaker_length(datum, lam0, zall) == 1
        assert whittaker_length(datum, lam0, z0) == 1


def test_whittaker_length_rank1_zero_zeta(red_a1):
    z0 = WhittakerCharacter.from_indices(red_a1, "none")
    dom = Weight([0, 0])  # dominant regular: dom+rho0 = (1/2,-1/2)... check below
    assert is_dominant(red_a1, dom)
    assert whittaker_length(red_a1, dom, z0) == 2


def test_whittaker_length_refuses_a_foreign_character(red_a1, red_c2):
    """A character supported off the datum's Pi_0 is refused as
    whittaker_mult refuses it, where whittaker_length without a table once
    raised tuple.index's ValueError."""
    zeta = WhittakerCharacter.from_indices(red_c2, "all")
    lam = Weight([0, 0])
    for call in (lambda: whittaker_length(red_a1, lam, zeta),
                 lambda: whittaker_mult(red_a1, lam, lam, zeta)):
        with pytest.raises(UnsupportedInputError) as got:
            call()
        assert str(got.value) == "parabolic subgroups are generated by subsets of Pi_0"


def test_nonsingular_mult_matches_antidominant_entry(red_a2):
    lam0 = _antidominant_regular(red_a2)
    zall = WhittakerCharacter.from_indices(red_a2, "all")
    w0 = longest_element(red_a2)
    dom = dot(red_a2, w0, lam0)
    table = builtin_verma_table(red_a2, dom)
    assert whittaker_mult(red_a2, dom, dom, zall, table) \
        == table.get(dom, lam0)


def test_user_table_parsing_and_missing(red_a1):
    text = """
    # lam gamma count
    0,0 0,0 1
    0,0 -1,1 1
    """
    table = parse_mult_table(red_a1, text)
    assert table.provenance == "user-supplied"
    z0 = WhittakerCharacter.from_indices(red_a1, "none")
    assert whittaker_mult(red_a1, Weight([0, 0]), Weight([-1, 1]), z0, table) == 1
    with pytest.raises(MissingTableEntryError) as err:
        whittaker_mult(red_a1, Weight([0, 0]), Weight([5, -5]), z0, table)
    assert err.value.missing
    with pytest.raises(UnsupportedInputError):
        parse_mult_table(red_a1, "0,0 0,0 -1")
    with pytest.raises(UnsupportedInputError):
        parse_mult_table(red_a1, "0,0 0,0")
    with pytest.raises(UnsupportedInputError):
        parse_mult_table(red_a1, "0,0 0,0 2")  # diagonal must be 1
    # a malformed weight literal names its line, as every other bad line does
    for text, message in (
            ("0,0 0,0 1\n0,0,0 -1,1 1",
             "line 2: weight literal '0,0,0' has 3 coordinates, expected 2"),
            ("0,0 0,x 1", "line 1: Invalid literal for Fraction: 'x'"),
            ("0,0 0,0 x", "line 1: bad multiplicity 'x'")):
        with pytest.raises(UnsupportedInputError) as err:
            parse_mult_table(red_a1, text)
        assert str(err.value) == message


def test_length_regressions_rank2(red_a2, red_c2):
    """Recorded regressions: composition length is constant on the
    W_zeta dot orbit of the base weight and weakly decreases as the
    support grows."""
    import itertools

    from superlink import orbit_dot

    for datum in (red_a2, red_c2):
        lam0 = _antidominant_regular(datum)
        n_simple = len(datum.simple_even)
        supports = []
        for mask in itertools.product([0, 1], repeat=n_simple):
            supports.append(tuple(datum.simple_even[i]
                                  for i in range(n_simple) if mask[i]))
        for lam in sorted(orbit_dot(datum, lam0)):
            lengths = {}
            for support in supports:
                z = WhittakerCharacter.make(datum, support)
                value = whittaker_length(datum, lam, z)
                lengths[support] = value
                for mate in orbit_dot(datum, lam, support):
                    assert whittaker_length(datum, mate, z) == value
            for small, big in itertools.product(supports, supports):
                if set(small) <= set(big):
                    assert lengths[big] <= lengths[small]


def test_group_cap():
    from superlink.errors import CapExceededError
    with pytest.raises(CapExceededError):
        FiniteWeylGroup.symmetric(9)  # 9! > default cap


def test_whittaker_length_with_user_table_for_super(gl21):
    """Super families take plug-in tables; the zeta-filter still applies."""
    z1 = WhittakerCharacter.from_indices(gl21, "1")
    lam = gl21.parse_weight("0,-2|5")
    rep = gl21.parse_weight("-3,1|5")
    text = f"0,-2|5 -3,1|5 1\n0,-2|5 0,-2|5 1\n"
    table = parse_mult_table(gl21, text)
    # only the W_zeta-anti-dominant gamma counts toward the length
    assert whittaker_length(gl21, lam, z1, table) == 1
    assert whittaker_mult(gl21, lam, rep, z1, table) == 1


# -- the indexed engine ---------------------------------------------------------

def _zetas(datum):
    import itertools
    simple = datum.simple_even
    for mask in itertools.product([0, 1], repeat=len(simple)):
        yield WhittakerCharacter.make(datum, [r for r, m in zip(simple, mask) if m])


@pytest.mark.parametrize("factors,base,mu_step", [
    ("A2", "-2,0,2", 1), ("C2", "-4,-2", 1), ("A1xC2", "-1,1|-4,-2", 8),
    ("A1xC2", "-1,1|-4,-2", 1)])
def test_table_free_whittaker_matches_builtin_table(factors, base, mu_step):
    """Every lam of the orbit, every zeta subset and every mu_step-th mu."""
    from superlink import build_root_datum, orbit_dot
    datum = build_root_datum("reductive", factors=factors)
    base = datum.parse_weight(base)
    table = builtin_verma_table(datum, base)
    orbit = sorted(orbit_dot(datum, base))
    assert len(table.entries) == len(orbit) ** 2
    for zeta in _zetas(datum):
        for lam in orbit:
            assert whittaker_length(datum, lam, zeta) == whittaker_length(datum, lam, zeta, table)
            for mu in orbit[::mu_step]:
                assert (whittaker_mult(datum, lam, mu, zeta)
                        == whittaker_mult(datum, lam, mu, zeta, table))


def test_whittaker_mult_closes_no_orbit(red_a2, gl21, monkeypatch):
    """gamma is the window sort's W_zeta-anti-dominant point, with a table
    or without: no W_zeta orbit is closed."""
    def refuse(*args):
        raise AssertionError("whittaker_mult closed a W_zeta orbit")
    monkeypatch.setattr(kl, "_antidominant_points", refuse)
    zall = WhittakerCharacter.from_indices(red_a2, "all")
    lam0, dom = Weight([-2, 0, 2]), Weight([0, 0, 0])
    assert whittaker_mult(red_a2, dom, lam0, zall) == 1
    assert whittaker_mult(red_a2, dom, dom, zall, builtin_verma_table(red_a2, lam0)) == 1
    z1 = WhittakerCharacter.from_indices(gl21, "1")
    table = parse_mult_table(gl21, "0,-2|5 -3,1|5 1\n")
    lam = gl21.parse_weight("0,-2|5")  # its W_zeta rep is -3,1|5
    assert whittaker_mult(gl21, lam, lam, z1, table) == 1


def _agreement_data():
    """(datum, table, lams, mus) for A2, A1xC2 (built-in tables over a regular
    orbit) and gl(2|1) (a user table over the W_zeta-anti-dominant points of
    a weight grid, with distinct counts)."""
    import itertools
    from superlink import build_root_datum, orbit_dot
    for factors, base in (("A2", "-2,0,2"), ("A1xC2", "-1,1|-4,-2")):
        datum = build_root_datum("reductive", factors=factors)
        orbit = sorted(orbit_dot(datum, datum.parse_weight(base)))
        yield datum, builtin_verma_table(datum, orbit[0]), orbit[::3], orbit
    gl21 = build_root_datum("gl", m=2, n=1)
    mus = [Weight(c) for c in itertools.product(range(-2, 2), range(-2, 2), (0, 3))]
    gammas = sorted({gamma_summation_set(gl21, mu, zeta)[0]
                     for mu in mus for zeta in _zetas(gl21)})
    lams = [gl21.parse_weight("0,-2|5"), gl21.parse_weight("-1,0|0")]
    entries = {(lam, g): 2 + i for lam in lams for i, g in enumerate(gammas)}
    yield gl21, kl.MultTable(entries), lams, mus


def test_whittaker_mult_reads_the_one_gamma():
    """For every zeta: with a table, whittaker_mult is the table's entry at
    the one point of gamma_summation_set; without one, the built-in value,
    which is that entry of the built-in table; and a table lacking the
    pair names (lam, gamma)."""
    for datum, table, lams, mus in _agreement_data():
        builtin = table.provenance == "builtin-KL"
        for zeta in _zetas(datum):
            for lam in lams:
                for mu in mus:
                    gamma = gamma_summation_set(datum, mu, zeta)[0]
                    value = table.get(lam, gamma)
                    assert whittaker_mult(datum, lam, mu, zeta, table) == value
                    if builtin:
                        assert whittaker_mult(datum, lam, mu, zeta) == value
                    with pytest.raises(MissingTableEntryError) as err:
                        whittaker_mult(datum, lam, mu, zeta, kl.MultTable({}))
                    assert err.value.missing == [(lam, gamma)]


def test_table_free_refusals_keep_their_order(red_a2, gl21):
    from superlink.errors import CapExceededError
    z0 = WhittakerCharacter.from_indices(red_a2, "none")
    lam = Weight([-3, 0, 4])
    with pytest.raises(MissingTableEntryError) as err:
        whittaker_mult(red_a2, lam, Weight([-3, 0, 5]), z0)  # another orbit
    assert err.value.missing == [(lam, Weight([-3, 0, 5]))]
    # a non-integral weight is refused before anything else, with the
    # caller's own text: lam, then mu, then the length's lam
    half = Weight([Fraction(1, 2), 0, 0])
    for call in (lambda: whittaker_mult(gl21, gl21.parse_weight("1/2,0|0"),
                                        gl21.parse_weight("0,0|0"),
                                        WhittakerCharacter.from_indices(gl21, "none")),
                 lambda: whittaker_mult(red_a2, half, lam, z0),
                 lambda: whittaker_mult(red_a2, lam, half, z0),
                 lambda: whittaker_length(red_a2, half, z0)):
        with pytest.raises(UnsupportedInputError) as err:
            call()
        assert str(err.value) == "Whittaker multiplicities need integral weights"
    with pytest.raises(UnsupportedInputError, match="reductive"):
        whittaker_length(gl21, gl21.parse_weight("0,-2|5"),
                         WhittakerCharacter.from_indices(gl21, "1"))
    with pytest.raises(UnsupportedInputError, match="singular"):
        whittaker_mult(red_a2, Weight([-1, 0, 1]), Weight([-3, 0, 4]), z0)
    with pytest.raises(CapExceededError):
        whittaker_length(red_a2, lam, z0, cap=5)
    with pytest.raises(CapExceededError):
        whittaker_mult(red_a2, lam, lam, z0, cap=5)


def test_groups_are_shared_per_datum(red_a2, capsys, monkeypatch):
    """One KL memo per datum object, kept on it.  An equal but distinct
    datum has its own: a lookup never compares data, so callers share a
    memo by reusing one datum, as the CLI does through `cli._root_datum`."""
    from superlink import build_root_datum, cli, kl
    again = build_root_datum("reductive", factors="A2")
    assert again == red_a2
    memo = kl._tables(red_a2)[1]
    assert kl._tables(red_a2)[1] is memo
    assert kl._tables(again)[1] is not memo
    assert kl._tables(build_root_datum("reductive", factors="C2"))[1] is not memo
    tables = kl._tables
    seen = []
    monkeypatch.setattr(kl, "_tables",
                        lambda datum, cap: seen.append(tables(datum, cap)) or seen[-1])
    argv = ["mult", "--family", "reductive", "--factors", "A2", "--weight=-2,0,2",
            "--zeta", "all", "--length"]
    assert cli.main(argv) == cli.main(argv) == 0
    assert capsys.readouterr().out == '{"length":1}\n' * 2
    assert len(seen) == 2 and seen[0][1] is seen[1][1]


def test_groups_of_one_datum_share_one_memo():
    """Every FiniteWeylGroup of one datum reads the memo kept on the datum."""
    from superlink import build_root_datum, kl
    datum = build_root_datum("reductive", factors="A2")
    W, V = FiniteWeylGroup(datum), FiniteWeylGroup(datum)
    assert W is not V
    assert W._memo is V._memo is datum.__dict__["_derived"][(kl._KLMemo,)]
    assert FiniteWeylGroup.symmetric(3)._memo is not FiniteWeylGroup.symmetric(3)._memo


def test_multiplicities_reuse_the_groups_memo(monkeypatch):
    """whittaker_length after kl_polynomial on the same datum builds no second
    KL memo and no group object: it fills the group's memo."""
    from superlink import build_root_datum, kl
    datum = build_root_datum("reductive", factors="A2")
    W = FiniteWeylGroup(datum)
    s = W.reflections
    assert kl_polynomial(W, W.identity, s[0].compose(s[1])).coeffs == (1,)
    filled = dict(W._memo._kl)
    assert filled
    built = []
    for cls in (kl._KLMemo, FiniteWeylGroup):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__",
                            lambda self, *args, init=init: built.append(args) or init(self, *args))
    zeta = WhittakerCharacter.from_indices(datum, "")
    assert whittaker_length(datum, Weight([0, 0, 0]), zeta) == 6
    assert built == []
    assert W._memo is datum.__dict__["_derived"][(kl._KLMemo,)]
    assert filled.items() < W._memo._kl.items()


def test_builtin_table_reads_the_orbit_off_the_index(red_a2, monkeypatch):
    """builtin_verma_table runs no orbit BFS and one anti-dominant sort, of
    its base weight; its points are those of the BFS orbit, sorted."""
    from superlink import kl, weyl
    lam = Weight([-2, 0, 2])
    orbit = weyl.orbit_dot(red_a2, lam)
    bfs, sorts = [], []
    monkeypatch.setattr(weyl, "orbit_dot", lambda *args: bfs.append(args))
    monkeypatch.setattr(weyl, "_orbit_shifted", lambda *args: bfs.append(args))
    rep = kl._antidominant_rep
    monkeypatch.setattr(kl, "_antidominant_rep",
                        lambda *args: sorts.append(args) or rep(*args))
    table = builtin_verma_table(red_a2, Weight([0, 0, 0]))
    assert bfs == [] and len(sorts) == 1
    assert {mu for mu, _ in table.entries} == orbit
    assert list(table.entries) == [(mu, gamma) for mu in sorted(orbit) for gamma in sorted(orbit)]
    assert table.get(dot(red_a2, w0 := longest_element(red_a2), lam), lam) == 1
    assert table.get(lam, dot(red_a2, w0, lam)) == 0


@pytest.mark.parametrize("make", [lambda: FiniteWeylGroup.symmetric(4),
                                  lambda: FiniteWeylGroup.type_c(3)], ids=["S4", "C3"])
def test_kl_identities_on_all_pairs(make):
    """P_{x,w} = P_{x^-1,w^-1}, and P_{x,w} = P_{sx,w} for s in D_L(w)."""
    W = make()
    elements = W.elements()
    for w in elements:
        descents = [i for i, s in enumerate(W.reflections)
                    if length(W.datum, s.compose(w)) < length(W.datum, w)]
        for x in elements:
            p = kl_polynomial(W, x, w)
            assert p == kl_polynomial(W, x.inverse(), w.inverse())
            for i in descents:
                assert p == kl_polynomial(W, W.reflections[i].compose(x), w)


def _rank_matrix(v, n, signed):
    """v[i, j] = #{a <= i : v(a) >= j}, for i, j in [n] (type A) or in
    [+-n] (types B/C), read off the one-line notation v of a permutation of
    [n] or a signed permutation of [+-n] with v(-a) = -v(a)."""
    points = [a for a in range(-n, n + 1) if a] if signed else list(range(1, n + 1))
    return tuple(sum(1 for a in points if a <= i and v[a] >= j)
                 for i in points for j in points)


def _one_line(w, signed):
    """The element as a (signed) permutation v of [n] in one-line notation.

    images[i] = +-(j+1) sends e_i to +-e_j.  For type C the coordinates are
    read in reverse, k = n - i, so the sign root 2e_n becomes the sign change
    of 1 and e_i - e_{i+1} stay adjacent transpositions: the simple
    reflections of Bjorner-Brenti's B_n (Ch. 8), which have the same Bruhat
    order."""
    n = len(w.images)
    v = {}
    for i, image in enumerate(w.images):
        j = abs(image) - 1
        sign = 1 if image > 0 else -1
        if signed:
            v[n - i] = sign * (n - j)
            v[-(n - i)] = -sign * (n - j)
        else:
            v[i + 1] = j + 1
    return v


@pytest.mark.parametrize("make, n, signed", [(FiniteWeylGroup.symmetric, 4, False),
                                             (FiniteWeylGroup.symmetric, 5, False),
                                             (FiniteWeylGroup.type_c, 3, True)])
def test_bruhat_order_matches_rank_matrices(make, n, signed):
    """x <= w exactly when x[i, j] <= w[i, j] for all i, j: Bjorner-Brenti,
    Combinatorics of Coxeter Groups, Thm 2.1.5 (S_n) and Thm 8.1.8 (B_n)."""
    W = make(n)
    elements = W.elements()
    ranks = [_rank_matrix(_one_line(w, signed), n, signed) for w in elements]
    comparable = 0
    for x, rx in zip(elements, ranks):
        for w, rw in zip(elements, ranks):
            expected = all(a <= b for a, b in zip(rx, rw))
            assert bruhat_leq(W, x, w) == expected, (x, w)
            comparable += expected
    assert len(elements) < comparable < len(elements) ** 2


def test_integrality_is_checked_once_on_the_antidominant_path(integrality_calls):
    """Each public call refuses a non-integral weight once; the KL positions,
    the orbit table and classify_simple read weyl's unchecked body.  Counted
    on reductive A2xC2 (|W| = 48): builtin_verma_table made 51 calls when
    every orbit point was checked again."""
    from superlink import antidominant_rep, build_root_datum, classify_simple
    from superlink.weyl import WeylElement
    calls = integrality_calls
    datum = build_root_datum("reductive", factors="A2xC2")
    lam = datum.parse_weight("-3,0,4|-5,-2")
    zeta = WhittakerCharacter.from_indices(datum, "1,3")
    base = antidominant_rep(datum, lam)[0]
    e = WeylElement.identity(datum.dim)
    for expected, call in ((2, lambda: builtin_verma_table(datum, lam)),
                           (3, lambda: whittaker_mult(datum, lam, lam, zeta)),
                           (2, lambda: whittaker_length(datum, lam, zeta)),
                           (1, lambda: classify_simple(datum, lam, zeta)),
                           (2, lambda: verma_mult(datum, base, e, e))):
        calls.clear()
        call()
        assert len(calls) == expected
