import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maximin_bandits.core import CapacityError
from maximin_bandits.estimators import (
    chernoff_sample_count,
    median_of_means,
    median_of_means_sample_count,
    mom_groups,
    row_medians_of_means,
)


def test_chernoff_sample_count_frozen_value():
    # ceil((8 / 0.25) * ln(40)) = 119
    assert chernoff_sample_count(0.5, 0.1, 1) == 119


def test_chernoff_sample_count_scales_with_alpha():
    n_coarse = chernoff_sample_count(0.4, 0.1, 3)
    n_fine = chernoff_sample_count(0.2, 0.1, 3)
    # 1/alpha^2 scaling up to the ceiling
    assert n_fine >= 4 * n_coarse - 4


def test_chernoff_sample_count_validation():
    with pytest.raises(ValueError):
        chernoff_sample_count(0.0, 0.1, 1)
    with pytest.raises(ValueError):
        chernoff_sample_count(0.5, 1.0, 1)
    with pytest.raises(ValueError):
        chernoff_sample_count(0.5, 0.1, 0)


def test_counts_at_extreme_alpha_and_delta_are_capacity_errors():
    # alpha^2 underflows to 0 (1e-320), or the count overflows a float
    # (1e-160, delta 5e-324); each names the count instead of escaping
    # as ZeroDivisionError or OverflowError
    for alpha, delta in ((1e-320, 0.1), (1e-160, 0.1), (0.2, 5e-324)):
        with pytest.raises(CapacityError, match="sample of 3 arms x inf queries each"):
            chernoff_sample_count(alpha, delta, 3)
        with pytest.raises(CapacityError, match="sample of 3 arms x inf queries each"):
            median_of_means_sample_count(alpha, delta, 3, 0.3)
    with pytest.raises(CapacityError, match="median-of-means group count of inf exceeds the cap"):
        mom_groups(5e-324)
    assert mom_groups(1e-300) == math.ceil(math.log(2e300))


def test_mom_sample_count_frozen_value():
    # ceil(16 * 4 * 1 * ln(180) / 0.09)
    expected = math.ceil(16 * 4.0 * 1.0 * math.log(2 * 9 / 0.1) / 0.3**2)
    assert median_of_means_sample_count(0.3, 0.1, 9, 1.0) == expected == 3693


def test_mom_groups_values():
    assert mom_groups(0.1) == 3  # ceil(ln 20)
    assert mom_groups(0.5) == 2  # ceil(ln 4)
    assert mom_groups(0.9) >= 1


def test_median_of_means_hand_example():
    samples = [0, 2, 0, 2, 100, 2, 0, 2, 0]
    est = median_of_means(samples, 3)
    assert est == pytest.approx(2.0 / 3.0)


def test_median_of_means_tail_discard():
    # 10 samples, 3 groups of 3; the last sample is dropped
    samples = [0.0] * 3 + [1.0] * 3 + [2.0] * 3 + [999.0]
    est = median_of_means(samples, 3)
    assert est == pytest.approx(1.0)


def test_median_of_means_lower_median_for_even_groups():
    samples = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    # 4 groups of 2 -> group means [0, 1, 2, 3] -> lower median = 1
    est = median_of_means(samples, 4)
    assert est == pytest.approx(1.0)


def test_median_of_means_single_group_is_mean():
    samples = [1.0, 2.0, 6.0]
    assert median_of_means(samples, 1) == pytest.approx(3.0)


def test_median_of_means_rejects_short_input():
    with pytest.raises(ValueError):
        median_of_means([1.0, 2.0], 3)


def test_mom_config_validation():
    with pytest.raises(ValueError, match="group count must be >= 1"):
        median_of_means([1.0, 2.0], groups=0)
    with pytest.raises(ValueError, match="group count must be >= 1"):
        row_medians_of_means(np.zeros((2, 3)), groups=0)


@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=60),
    st.integers(1, 8),
)
@settings(deadline=None)
def test_mom_output_within_sample_range(samples, groups):
    if len(samples) < groups:
        return
    est = median_of_means(samples, groups)
    assert min(samples) - 1e-9 <= est <= max(samples) + 1e-9


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=3, max_size=30))
@settings(deadline=None)
def test_mom_deterministic(samples):
    assert median_of_means(samples, 3) == median_of_means(samples, 3)


def test_mom_matches_numpy_median_of_group_means_odd_k():
    rng = np.random.default_rng(0)
    samples = rng.random(21)
    est = median_of_means(samples, 3)
    group_means = samples[:21].reshape(3, 7).mean(axis=1)
    assert est == pytest.approx(float(np.median(group_means)))
