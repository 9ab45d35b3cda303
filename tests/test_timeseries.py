"""Histogram quantiles: the fixed-bucket estimator behind
``repro profile``'s quantile table (:mod:`repro.obs.registry`),
including its exactness at bucket boundaries.
"""

import pytest

from repro.obs.registry import MetricsRegistry, histogram_quantile


class TestQuantiles:
    def test_exact_at_bucket_boundaries(self):
        # counts [2, 2] over bounds (1, 2): the 2-count prefix ends
        # exactly at the first bound, the full mass at the second
        bounds, counts = (1.0, 2.0), [2, 2, 0]
        assert histogram_quantile(bounds, counts, 0.5) == \
            pytest.approx(1.0)
        assert histogram_quantile(bounds, counts, 1.0) == \
            pytest.approx(2.0)

    def test_interpolates_within_bucket(self):
        bounds, counts = (10.0,), [4, 0]
        # rank 1 of 4 inside (0, 10] -> quarter of the way up
        assert histogram_quantile(bounds, counts, 0.25) == \
            pytest.approx(2.5)

    def test_overflow_clamps_to_last_bound(self):
        bounds, counts = (1.0, 4.0), [0, 0, 3]
        assert histogram_quantile(bounds, counts, 0.5) == \
            pytest.approx(4.0)

    def test_empty_histogram_is_none(self):
        assert histogram_quantile((1.0,), [0, 0], 0.9) is None

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError, match="quantile must be in"):
            histogram_quantile((1.0,), [1, 0], 1.5)

    def test_histogram_method_matches_function(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", (1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == pytest.approx(
            histogram_quantile(histogram.bounds, histogram.counts, 0.5))
