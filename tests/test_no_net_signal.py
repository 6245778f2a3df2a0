"""Records whose coincidences do not exceed their accidentals.

Such a record carries no net signal counts: ``linear_inversion`` has
nothing to normalize and raises, while ``mle_reconstruct`` takes its
signal scale from the raw counts and starts from I/4.
"""

import numpy as np
import pytest

from qskyrmion import HybridStateSpec, apply_isotropic_noise, pure_state, simulate_counts
from qskyrmion.tomography import TomographyRecord, linear_inversion, mle_reconstruct


@pytest.mark.parametrize("seed", [58, 98, 102, 120, 127, 143, 171])
def test_record_without_coincidences_stays_maximally_mixed(seed):
    # at half a pair per second, these seeds draw no coincidence in any setting
    rho = apply_isotropic_noise(pure_state(HybridStateSpec(0, 1)), 0.7)
    record = simulate_counts(rho, pair_rate=0.5, noise_rate_a=0.5, noise_rate_b=0.5,
                             mode="poisson", seed=seed)
    assert not record.coincidences.any()
    with pytest.raises(ValueError, match="^record carries no net signal counts$"):
        linear_inversion(record)
    result = mle_reconstruct(record)
    assert np.array_equal(result.rho.matrix, np.eye(4) / 4)
    assert (result.iterations, result.gap, result.converged) == (1, 0.0, True)


def test_coincidences_below_accidentals_reconstruct_a_physical_state():
    # Poisson(200) coincidences against 25e-9 * 1e5 * 1e5 = 250 accidentals per setting
    singles = np.full(36, 1e5)
    record = TomographyRecord(
        coincidences=np.random.default_rng(3).poisson(200, 36), singles_a=singles,
        singles_b=singles, window=25e-9, duration=1.0, pair_rate=1e5,
        noise_rate_a=0.0, noise_rate_b=0.0)
    assert (record.coincidences - record.accidentals()).sum() < 0
    with pytest.raises(ValueError, match="no net signal"):
        linear_inversion(record)
    result = mle_reconstruct(record)
    assert result.converged
    matrix = result.rho.matrix
    assert np.trace(matrix).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(matrix)[0] >= 0.0
