"""Property tests: the Shapovalov-rank oracle agrees with the KL engine on
random regular integral orbits of rank <= 2 reductive data, and its own
integrality test and dot orbit agree with the engine's."""
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from superlink import (build_root_datum, builtin_verma_table, is_integral,  # noqa: E402
                       orbit_dot, pairing_coroot, verma_series_rank_small)
from superlink.root_data import _derived  # noqa: E402
from superlink.verma_oracle import _dot_orbit, _Frame  # noqa: E402
from superlink.weights import Weight  # noqa: E402


@pytest.mark.parametrize("factors", ["A1", "A2", "C2", "A1xA1", "A1xC1"])
def test_oracle_matches_kl_on_random_orbits(factors, hypothesis_home):
    datum = build_root_datum("reductive", factors=factors)

    # lam + rho0 has integer coordinates of size <= 3, so lam is integral
    @settings(database=None, derandomize=True, max_examples=15, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=datum.dim, max_size=datum.dim))
    def agrees(coords):
        shifted = Weight(coords)
        assume(all(pairing_coroot(datum, shifted, a) != 0 for a in datum.even_positive))
        lam = shifted - datum.rho0
        assert verma_series_rank_small(datum, lam).entries == \
            builtin_verma_table(datum, lam).entries

    agrees()


@pytest.mark.parametrize("factors", ["A1", "A2", "C2", "A1xA1"])
def test_oracle_orbit_matches_orbit_dot(factors, hypothesis_home):
    """The frame's coroot pairings are integers exactly when is_integral
    holds, and the orbit closed under the frame's own reflections is
    orbit_dot's, each point once."""
    datum = build_root_datum("reductive", factors=factors)
    frame = _derived(datum, _Frame)
    in_a = [any(kind == "A" and start <= i < start + size for kind, start, size in datum.blocks)
            for i in range(datum.dim)]
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    @settings(database=None, derandomize=True, max_examples=25, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=datum.dim, max_size=datum.dim),
           st.sampled_from([0, Fraction(1, 3), Fraction(1, 2)]),
           st.lists(coordinate, min_size=datum.dim, max_size=datum.dim))
    def agrees(coords, central, rational):
        # lam + rho0 is integral up to a central shift of the type A blocks
        lam = Weight(c + central * a for c, a in zip(coords, in_a)) - datum.rho0
        offsets = _dot_orbit(frame, frame.pairings(lam))
        assert len(set(offsets)) == len(offsets)
        assert {lam + Weight(n) for n in offsets} == orbit_dot(datum, lam)
        assert (frame.pairings(Weight(rational)) is None) == (not is_integral(datum,
                                                                             Weight(rational)))

    agrees()
