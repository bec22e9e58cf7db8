"""Internal checks of the matrix-realization machinery behind the oracle."""
from fractions import Fraction

import pytest

from superlink import build_root_datum
from superlink.errors import UnsupportedInputError
from superlink.verma_oracle import VermaModel, _bracket, realize
from superlink.weights import Weight


def _ints(beta):
    """The int tuple of an integral Weight, as the models take a beta."""
    assert all(c.denominator == 1 for c in beta)
    return tuple(c.numerator for c in beta)


def test_realization_eigenvalues_and_cartan():
    # realize() runs its own [h, e_a] = a(h) e_a audit; just construct
    for factors in ("A1", "A2", "C1", "C2", "A1,C1"):
        realize(build_root_datum("reductive", factors=factors))


def test_coroot_brackets_match_pairings():
    for factors in ("A2", "C2"):
        datum = build_root_datum("reductive", factors=factors)
        real = realize(datum)
        for k, root in enumerate(datum.even_positive):
            e = real.root_matrix["e", k]
            f = real.root_matrix["f", k]
            h = _bracket(e, f)
            # [e,f] acts on any weight vector by the root's coroot pairing:
            # check against two probe weights via the Cartan decomposition
            from superlink.verma_oracle import _decompose
            parts = _decompose(datum, real, h)
            assert all(kind == "h" for (kind, _), _ in parts)
            from superlink import pairing_coroot
            for probe in (Weight(range(1, datum.dim + 1)), Weight([2] * datum.dim)):
                value = sum(c * probe[i] for (_, i), c in parts)
                assert value == pairing_coroot(datum, probe, root)


def test_brackets_are_integral_and_blind_to_type_a_centers():
    """Every structure constant is an int, and the Cartan part of every
    bracket [x, f_i] sums to 0 over each type A block: the block's identity
    never occurs, which is what lets a model shift lam by a central part."""
    from superlink.root_data import _derived
    from superlink.verma_oracle import _Frame

    for factors in ("A1", "A2", "C2", "A1xA1", "A1,C1"):
        datum = build_root_datum("reductive", factors=factors)
        for parts in _derived(datum, _Frame).brackets.values():
            assert all(type(c) is int for _, c in parts)
            h = {i: c for (kind, i), c in parts if kind == "h"}
            for kind, start, size in datum.blocks:
                if kind == "A":
                    assert sum(h.get(i, 0) for i in range(start, start + size)) == 0


def test_models_check_the_weight_dimension():
    from superlink.errors import DimensionMismatchError

    datum = build_root_datum("reductive", factors="A2")
    alpha = _ints(datum.simple_even[0].weight)
    for coords in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(DimensionMismatchError, match="expects 3 coordinates"):
            VermaModel(datum, Weight(coords)).simple_dim(alpha)


def test_sl2_verma_weight_dims():
    datum = build_root_datum("reductive", factors="A1")
    model = VermaModel(datum, Weight([3, 0]))  # pairing <lam, a^vee> = 3
    alpha = datum.even_positive[0].weight
    for k in range(6):
        beta = _ints(alpha.scale(k))
        assert model.verma_dim(beta) == 1
    # L(lam) for pairing 3 is 4-dimensional: weights lam - k alpha, k <= 3
    dims = [model.simple_dim(_ints(alpha.scale(k))) for k in range(6)]
    assert dims == [1, 1, 1, 1, 0, 0]


def test_sl2_antidominant_simple():
    datum = build_root_datum("reductive", factors="A1")
    model = VermaModel(datum, Weight([-2, 1]))  # pairing -3: M simple
    alpha = datum.even_positive[0].weight
    for k in range(8):
        assert model.simple_dim(_ints(alpha.scale(k))) == 1


def test_a2_verma_dims_are_kostant_counts():
    datum = build_root_datum("reductive", factors="A2")
    model = VermaModel(datum, Weight([0, 0, 0]))
    a1 = datum.simple_even[0].weight
    a2 = datum.simple_even[1].weight
    # partition counts over {a1, a2, a1+a2}
    assert model.verma_dim(_ints(a1)) == 1
    assert model.verma_dim(_ints(a1 + a2)) == 2
    assert model.verma_dim(_ints(a1 + a1 + a2)) == 2
    assert model.verma_dim(_ints((a1 + a2).scale(2))) == 3


def test_c2_gram_symmetry_spotcheck():
    datum = build_root_datum("reductive", factors="C2")
    model = VermaModel(datum, Weight([-2, -1]))
    beta = _ints(datum.simple_even[0].weight + datum.simple_even[1].weight)
    monos = model.frame.monomials(beta)
    assert len(monos) == model.verma_dim(beta)
    assert 0 <= model.simple_dim(beta) <= model.verma_dim(beta)
    # the contravariant form is symmetric on every weight space; check all
    # of height <= 3 for an integral lam, and refuse a generic rational one
    for factors, lam, rational in (("C2", [-2, -1], [Fraction(1, 2), Fraction(-2, 3)]),
                                   ("A2", [-2, 0, 2], [Fraction(1, 2), Fraction(-1, 3), 0])):
        datum = build_root_datum("reductive", factors=factors)
        with pytest.raises(UnsupportedInputError, match="needs an integral weight"):
            VermaModel(datum, Weight(rational))
        a1, a2 = (r.weight for r in datum.simple_even)
        model = VermaModel(datum, Weight(lam))
        for k in range(4):
            for j in range(k + 1):
                beta = _ints(a1.scale(j) + a2.scale(k - j))
                gram = model._gram(beta)
                assert len(gram) == model.verma_dim(beta)
                assert all(row[c] == gram[c][r] for r, row in enumerate(gram)
                           for c in range(len(row)))
                assert model.simple_dim(beta) <= len(gram)


def test_off_lattice_weight_spaces_are_empty():
    """A beta outside the positive root cone has no PBW monomials."""
    for factors, lam in (("A1", [3, 0]), ("C2", [-2, -1])):
        datum = build_root_datum("reductive", factors=factors)
        model = VermaModel(datum, Weight(lam))
        for b in (-datum.simple_even[0].weight, -datum.even_positive[-1].weight):
            b = _ints(b)
            assert model.verma_dim(b) == 0
            assert model.simple_dim(b) == 0


def test_realization_audited_once_per_datum(monkeypatch):
    from superlink import verma_oracle

    calls = []
    audit = verma_oracle._check_realization

    def counted(datum, real):
        calls.append(datum)
        audit(datum, real)

    monkeypatch.setattr(verma_oracle, "_check_realization", counted)
    datum = build_root_datum("reductive", factors="A2")  # a fresh datum: a fresh frame
    for lam in ([-2, 0, 2], [-3, 0, 2]):  # regular: six orbit points each
        table = verma_oracle.verma_multiplicities(datum, Weight(lam))
        assert len(table) == 36
        assert len(calls) == 1


def test_oracle_is_independent_of_kl():
    """Neither the oracle nor any package module it imports reaches the KL
    engine, so the oracle stays an independent check of it.  From the
    engine it reads only the generic BFS closure and the per-datum memo
    that keeps its own frame: it tests integrality, closes the dot orbit
    and sums its height functional over its own realization's coroots, and
    calls neither the engine's coroot pairing nor its integrality test."""
    import ast
    from pathlib import Path

    import superlink

    package = Path(superlink.__file__).resolve().parent
    seen, todo, reads = set(), ["verma_oracle"], {}
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("superlink") for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                modules = [node.module] if node.module else [a.name for a in node.names]
                todo += modules
                if name == "verma_oracle":
                    reads.setdefault(node.module, set()).update(a.name for a in node.names)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = (getattr(node, "id", None), getattr(node, "attr", None))
                assert not {"_tables", "_KLMemo"} & set(names)
                assert name != "verma_oracle" or not {"pairing_coroot", "is_integral",
                                                      "orbit_dot"} & set(names)
    assert "kl" not in seen
    assert seen == {"verma_oracle", "errors", "root_data", "weights", "weyl"}
    assert reads["root_data"] == {"RootDatum", "_derived"}
    assert reads["weyl"] == {"_closure"}


def test_models_die_with_the_call(monkeypatch):
    """No per-lam memo outlives a VermaModel: every model built inside
    verma_multiplicities is freed once the call returns (only the frame's
    lam-free tables stay, with the datum)."""
    import gc
    import weakref

    from superlink import verma_oracle

    refs = []

    class Tracked(VermaModel):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(verma_oracle, "VermaModel", Tracked)
    datum = build_root_datum("reductive", factors="A2")
    verma_oracle.verma_multiplicities(datum, Weight([-2, 0, 2]))
    gc.collect()
    assert len(refs) == 6
    assert all(ref() is None for ref in refs)


def test_each_product_straightened_once_per_datum(monkeypatch):
    """The frame straightens each x f_mono v once: a second call on the
    datum, at another lam, reads what the first one stored."""
    from collections import Counter

    from superlink import verma_oracle

    counts = Counter()
    straighten = verma_oracle._Frame._straighten

    def counted(self, key, mono):
        counts[key, mono] += 1
        return straighten(self, key, mono)

    monkeypatch.setattr(verma_oracle._Frame, "_straighten", counted)
    datum = build_root_datum("reductive", factors="A2")
    verma_oracle.verma_multiplicities(datum, Weight([-2, 0, 2]))
    first = set(counts)
    verma_oracle.verma_multiplicities(datum, Weight([-3, 0, 3]))
    assert first < set(counts)  # the larger orbit asks for more products
    assert max(counts.values()) == 1


def test_f_actions_carry_no_cartan_part():
    """An f's coefficients are ints; an e's are forms of dim + 1 ints, some
    of them with a Cartan part: only an e ever meets a Cartan element."""
    from superlink.root_data import _derived
    from superlink.verma_oracle import _Frame, verma_multiplicities

    for factors in ("A1", "A2", "C2", "A1xA1", "A1,C1"):
        datum = build_root_datum("reductive", factors=factors)
        verma_multiplicities(datum, datum.rho0.scale(-3))
        actions = _derived(datum, _Frame)._actions
        kinds = {kind for (kind, _), _ in actions}
        assert kinds == {"e", "f"}
        for ((kind, _), _), out in actions.items():
            if kind == "f":
                assert all(type(c) is int for c in out.values())
            else:
                assert all(type(form) is tuple and len(form) == datum.dim + 1
                           and all(type(c) is int for c in form) for form in out.values())
        assert any(any(form[1:]) for ((kind, _), _), out in actions.items() if kind == "e"
                   for form in out.values())


def test_frame_and_its_tables_die_with_the_datum():
    import gc
    import weakref

    from superlink.root_data import _derived
    from superlink.verma_oracle import _Frame, verma_multiplicities

    datum = build_root_datum("reductive", factors="A2")
    verma_multiplicities(datum, Weight([-2, 0, 2]))
    frame = _derived(datum, _Frame)
    assert frame._actions and frame._below_cache and frame._index_cache
    refs = [weakref.ref(datum), weakref.ref(frame)]
    del datum, frame
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_an_f_bracket_with_a_cartan_part_is_refused():
    """An f's coefficients stay ints only while [f_i, f_j] holds f's alone;
    a table that breaks this is refused, never multiplied through."""
    from superlink.errors import SuperlinkError
    from superlink.root_data import _derived
    from superlink.verma_oracle import _Frame

    frame = _derived(build_root_datum("reductive", factors="A2"), _Frame)
    (key, head), parts = next(((x, i), p) for (x, i), p in frame.brackets.items()
                              if x[0] == "f" and x[1] > i)
    frame.brackets[key, head] = parts + ((("h", 0), 1),)
    with pytest.raises(SuperlinkError, match="a bracket of two f's left their span"):
        frame.act(key, (head,))
