"""Internal checks of the matrix-realization machinery behind the oracle."""
from fractions import Fraction

from superlink import build_root_datum
from superlink.verma_oracle import VermaModel, _bracket, realize
from superlink.weights import Weight


def test_realization_eigenvalues_and_cartan():
    # realize() runs its own [h, e_a] = a(h) e_a audit; just construct
    for factors in ("A1", "A2", "C1", "C2", "A1,C1"):
        realize(build_root_datum("reductive", factors=factors))


def test_coroot_brackets_match_pairings():
    for factors in ("A2", "C2"):
        datum = build_root_datum("reductive", factors=factors)
        real = realize(datum)
        for root in datum.even_positive:
            e = real.root_matrix[root.weight]
            f = real.root_matrix[-root.weight]
            h = _bracket(e, f)
            # [e,f] acts on any weight vector by the root's coroot pairing:
            # check against two probe weights via the Cartan decomposition
            from superlink.verma_oracle import _decompose
            parts = _decompose(datum, real, h)
            assert all(kind == "h" for kind, _, _ in parts)
            from superlink import pairing_coroot
            for probe in (Weight(range(1, datum.dim + 1)), Weight([2] * datum.dim)):
                value = sum(c * probe[i] for _, i, c in parts)
                assert value == pairing_coroot(datum, probe, root)


def test_sl2_verma_weight_dims():
    datum = build_root_datum("reductive", factors="A1")
    model = VermaModel(datum, Weight([3, 0]))  # pairing <lam, a^vee> = 3
    alpha = datum.even_positive[0].weight
    for k in range(6):
        beta = alpha.scale(k)
        assert model.verma_dim(beta) == 1
    # L(lam) for pairing 3 is 4-dimensional: weights lam - k alpha, k <= 3
    dims = [model.simple_dim(alpha.scale(k)) for k in range(6)]
    assert dims == [1, 1, 1, 1, 0, 0]


def test_sl2_antidominant_simple():
    datum = build_root_datum("reductive", factors="A1")
    model = VermaModel(datum, Weight([-2, 1]))  # pairing -3: M simple
    alpha = datum.even_positive[0].weight
    for k in range(8):
        assert model.simple_dim(alpha.scale(k)) == 1


def test_a2_verma_dims_are_kostant_counts():
    datum = build_root_datum("reductive", factors="A2")
    model = VermaModel(datum, Weight([0, 0, 0]))
    a1 = datum.simple_even[0].weight
    a2 = datum.simple_even[1].weight
    # partition counts over {a1, a2, a1+a2}
    assert model.verma_dim(a1) == 1
    assert model.verma_dim(a1 + a2) == 2
    assert model.verma_dim(a1 + a1 + a2) == 2
    assert model.verma_dim((a1 + a2).scale(2)) == 3


def test_c2_gram_symmetry_spotcheck():
    datum = build_root_datum("reductive", factors="C2")
    model = VermaModel(datum, Weight([-2, -1]))
    beta = datum.simple_even[0].weight + datum.simple_even[1].weight
    monos = model._monomials(beta)
    assert len(monos) == model.verma_dim(beta)
    assert 0 <= model.simple_dim(beta) <= model.verma_dim(beta)


def test_models_die_with_the_call(monkeypatch):
    """No cache outlives a VermaModel: every model built inside
    verma_multiplicities is freed once the call returns."""
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
