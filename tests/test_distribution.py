"""Tests for DiscreteDistribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.distribution import DiscreteDistribution

from .conftest import distributions


class TestConstruction:
    def test_sorted_on_build(self):
        d = DiscreteDistribution([3.0, 1.0, 2.0], [0.2, 0.5, 0.3])
        assert list(d.values) == [1.0, 2.0, 3.0]
        assert list(d.probs) == [0.5, 0.3, 0.2]

    def test_duplicates_merged(self):
        d = DiscreteDistribution([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        assert len(d) == 2
        assert d.probs[0] == pytest.approx(0.5)

    def test_zero_mass_atoms_dropped(self):
        d = DiscreteDistribution([1.0, 2.0, 3.0], [0.5, 0.0, 0.5])
        assert len(d) == 2
        assert 2.0 not in d.values

    def test_uniform_default(self):
        d = DiscreteDistribution([5.0, 1.0])
        assert np.allclose(d.probs, [0.5, 0.5])

    def test_normalize(self):
        d = DiscreteDistribution([1.0, 2.0], [2.0, 6.0], normalize=True)
        assert np.allclose(d.probs, [0.25, 0.75])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([])

    def test_negative_prob_raises(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([1.0], [-0.5])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([1.0, 2.0], [1.0])

    def test_from_pairs_and_point_mass(self):
        d = DiscreteDistribution.from_pairs([(2.0, 0.5), (1.0, 0.5)])
        assert d.min() == 1.0
        p = DiscreteDistribution.point_mass(7.0)
        assert len(p) == 1 and p.mean() == 7.0

    def test_equality(self):
        a = DiscreteDistribution([1.0, 2.0], [0.5, 0.5])
        b = DiscreteDistribution([2.0, 1.0], [0.5, 0.5])
        c = DiscreteDistribution([1.0, 2.0], [0.4, 0.6])
        assert a == b
        assert a != c


class TestStatistics:
    def test_min_max_mean(self):
        d = DiscreteDistribution([1.0, 3.0], [0.25, 0.75])
        assert d.min() == 1.0
        assert d.max() == 3.0
        assert d.mean() == pytest.approx(2.5)

    def test_variance(self):
        d = DiscreteDistribution([0.0, 2.0], [0.5, 0.5])
        assert d.variance() == pytest.approx(1.0)

    def test_cdf(self):
        d = DiscreteDistribution([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert d.cdf(0.5) == 0.0
        assert d.cdf(1.0) == pytest.approx(0.2)
        assert d.cdf(2.5) == pytest.approx(0.5)
        assert d.cdf(10.0) == pytest.approx(1.0)

    @given(distributions())
    @settings(max_examples=60)
    def test_cdf_monotone(self, d):
        xs = np.linspace(d.min() - 1, d.max() + 1, 20)
        cdfs = [d.cdf(x) for x in xs]
        assert all(a <= b + 1e-12 for a, b in zip(cdfs, cdfs[1:]))


class TestQuantile:
    def test_definition_10_semantics(self):
        # First sorted instance whose cumulative probability reaches phi.
        d = DiscreteDistribution([1.0, 2.0, 3.0], [0.3, 0.3, 0.4])
        assert d.quantile(0.1) == 1.0
        assert d.quantile(0.3) == 1.0
        assert d.quantile(0.31) == 2.0
        assert d.quantile(0.6) == 2.0
        assert d.quantile(0.61) == 3.0
        assert d.quantile(1.0) == 3.0

    def test_out_of_range_raises(self):
        d = DiscreteDistribution([1.0])
        with pytest.raises(ValueError):
            d.quantile(0.0)
        with pytest.raises(ValueError):
            d.quantile(1.5)

    @given(distributions())
    @settings(max_examples=60)
    def test_quantile_within_support(self, d):
        for phi in (0.01, 0.25, 0.5, 0.75, 1.0):
            q = d.quantile(phi)
            assert d.min() <= q <= d.max()

    @given(distributions())
    @settings(max_examples=60)
    def test_quantile_monotone_in_phi(self, d):
        qs = [d.quantile(phi) for phi in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
        assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))


class TestCombinators:
    def test_scaled(self):
        d = DiscreteDistribution([1.0, 2.0], [0.5, 0.5])
        s = d.scaled(0.5)
        assert s.total_mass == pytest.approx(0.5)
        assert s.mean() == d.mean()

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([1.0]).scaled(0.0)

    def test_mixture_reassembles_joint(self):
        # U_Q must equal the p(q)-weighted mixture of the U_q (Theorem 2's
        # identity).
        parts = [
            (DiscreteDistribution([1.0, 2.0], [0.5, 0.5]), 0.3),
            (DiscreteDistribution([2.0, 4.0], [0.25, 0.75]), 0.7),
        ]
        mix = DiscreteDistribution.mixture(parts)
        assert mix.total_mass == pytest.approx(1.0)
        assert mix.cdf(2.0) == pytest.approx(0.3 * 1.0 + 0.7 * 0.25)

    def test_mixture_empty_raises(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.mixture([])


#: Support values drawn from a small pool, so duplicates are common.
_tied_values = st.lists(
    st.sampled_from([0.0, 1.0, 1.0 + 1e-13, 2.5, 3.0, 7.25]) | st.floats(0.0, 50.0),
    min_size=1,
    max_size=40,
)


class TestEqualMassSort:
    """Equal masses skip the stable argsort; the result must not move."""

    @staticmethod
    def _argsort_build(vals, probs):
        """The stable-argsort construction, kept here as the reference
        (with the class's canonical merge of near-equal support)."""
        order = np.argsort(vals, kind="stable")
        keep_vals: list[float] = []
        keep_ps: list[float] = []
        for v, p in zip(vals[order], probs[order]):
            if p <= 1e-9:
                continue
            if keep_vals and abs(v - keep_vals[-1]) <= 1e-12:
                keep_ps[-1] += p
            else:
                keep_vals.append(float(v))
                keep_ps.append(float(p))
        return np.asarray(keep_vals), np.asarray(keep_ps)

    @given(values=_tied_values, mass=st.sampled_from([None, 0.25, 1e-3, 1e-10]))
    @settings(max_examples=150)
    def test_matches_stable_argsort_build(self, values, mass):
        vals = np.asarray(values)
        probs = np.full(vals.size, 1.0 / vals.size if mass is None else mass)
        ref_vals, ref_probs = self._argsort_build(vals, probs)
        if not ref_vals.size:
            with pytest.raises(ValueError):
                DiscreteDistribution(vals, probs)
            return
        got = DiscreteDistribution(vals, probs)
        assert np.array_equal(got.values, ref_vals)
        assert np.array_equal(got.probs, ref_probs)

    def test_mass_array_not_shared(self):
        probs = np.full(3, 1.0 / 3.0)
        d = DiscreteDistribution(np.array([3.0, 1.0, 2.0]), probs)
        assert d.probs is not probs
        probs[0] = 0.9
        assert d.probs[0] == pytest.approx(1.0 / 3.0)
