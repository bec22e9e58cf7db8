"""Property test: the Shapovalov-rank oracle agrees with the KL engine on
random regular integral orbits of rank <= 2 reductive data."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from superlink import (build_root_datum, builtin_verma_table, pairing_coroot,  # noqa: E402
                       verma_series_rank_small)
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
