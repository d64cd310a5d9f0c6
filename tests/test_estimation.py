import subprocess
import sys

import numpy as np
import pytest

from seqtomo import (
    PreparationBasis,
    RandomStream,
    chernoff_plan,
    channel_zoo,
    dcqd_distribution,
    random_channel,
    random_density_matrix,
    sample_categorical,
    seqpt_estimate,
    seqst_qpt_sample,
    seqst_sample,
)
from seqtomo.errors import InvalidDistribution, ParamOutOfRange, SizeLimitExceeded
from seqtomo.estimation import CHUNK_LIMIT, ShotPlan
from seqtomo.qpt import dcqd_sample_rows


class TestChernoffPlan:
    def test_logs_cancel_analytically(self):
        # delta = 2/e^2 makes 2 ln(2/delta) = 4 exactly
        assert chernoff_plan(1.0, 2.0 / np.e**2).m == 4

    def test_direct_arithmetic(self):
        # 2 ln(40) / 0.01 = 737.77...
        assert chernoff_plan(0.1, 0.05).m == 738

    def test_epsilon_scaling(self):
        base = chernoff_plan(0.2, 0.1).m
        halved = chernoff_plan(0.1, 0.1).m
        assert abs(halved - 4 * base) <= 4  # up to ceiling effects

    def test_monotonicity(self):
        eps_grid = [0.05, 0.1, 0.2, 0.5, 1.0]
        ms = [chernoff_plan(e, 0.05).m for e in eps_grid]
        assert ms == sorted(ms, reverse=True)
        delta_grid = [0.01, 0.05, 0.1, 0.5]
        ms = [chernoff_plan(0.1, d).m for d in delta_grid]
        assert ms == sorted(ms, reverse=True)

    def test_param_ranges(self):
        with pytest.raises(ParamOutOfRange):
            chernoff_plan(0.0, 0.05)
        with pytest.raises(ParamOutOfRange):
            chernoff_plan(2.5, 0.05)
        with pytest.raises(ParamOutOfRange):
            chernoff_plan(0.1, 0.0)
        with pytest.raises(ParamOutOfRange):
            chernoff_plan(0.1, 1.0)


class TestRandomStream:
    def test_same_stream_same_draws(self):
        a = RandomStream(42).generator().random(10)
        b = RandomStream(42).generator().random(10)
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ(self):
        s = RandomStream(42)
        a = s.substream(0).generator().random(10)
        b = s.substream(1).generator().random(10)
        assert not np.array_equal(a, b)

    def test_seed_range(self):
        with pytest.raises(ParamOutOfRange):
            RandomStream(-1)


class TestSampleCategorical:
    def test_deterministic_distribution(self):
        tallies = sample_categorical([1.0, 0.0, 0.0], 50, RandomStream(0))
        np.testing.assert_array_equal(tallies, [50, 0, 0])

    def test_binomial_band(self):
        # 4 sigma band for Bin(1e4, 0.5): 5000 +/- 200
        hits = 0
        trials = 300
        for seed in range(trials):
            t = sample_categorical([0.5, 0.5], 10_000, RandomStream(seed))
            assert t.sum() == 10_000
            if 4800 <= t[0] <= 5200:
                hits += 1
        assert hits / trials >= 0.99

    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidDistribution):
            sample_categorical([-0.01, 1.01], 10, RandomStream(0))

    def test_tiny_negative_clamped(self):
        tallies = sample_categorical([1.0, -1e-13], 20, RandomStream(0))
        np.testing.assert_array_equal(tallies, [20, 0])

    def test_bad_total_rejected(self):
        with pytest.raises(InvalidDistribution):
            sample_categorical([0.5, 0.4], 10, RandomStream(0))

    def test_determinism(self):
        a = sample_categorical([0.3, 0.3, 0.4], 1000, RandomStream(7, (2,)))
        b = sample_categorical([0.3, 0.3, 0.4], 1000, RandomStream(7, (2,)))
        np.testing.assert_array_equal(a, b)

    def test_reproducible_across_processes(self):
        code = (
            "from seqtomo import RandomStream, sample_categorical;"
            "print(list(sample_categorical([0.2, 0.3, 0.5], 5000, RandomStream(123, (4,)))))"
        )
        runs = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        local = list(sample_categorical([0.2, 0.3, 0.5], 5000, RandomStream(123, (4,))))
        assert runs[0].strip() == str(local)


class TestPartitionedSampling:
    @pytest.mark.parametrize("m", [1, 17, 738])
    def test_one_worker_is_one_multinomial_draw_from_the_stream(self, m):
        probs = [0.25, 0.25, 0.5]
        stream = RandomStream(4, (1, 2))
        got = sample_categorical(probs, m, stream, workers=1)
        np.testing.assert_array_equal(got, stream.generator().multinomial(m, probs))
        assert got.dtype == np.int64

    def test_tallies_sum_and_determinism(self):
        probs = [0.25, 0.25, 0.5]
        t2 = sample_categorical(probs, 999, RandomStream(5), workers=4)
        assert t2.sum() == 999
        t3 = sample_categorical(probs, 999, RandomStream(5), workers=4)
        np.testing.assert_array_equal(t2, t3)

    def test_partition_equals_sum_of_chunks(self):
        probs = [0.7, 0.3]
        whole = sample_categorical(probs, 100, RandomStream(9), workers=3)
        parts = sum(
            sample_categorical(probs, chunk, RandomStream(9).substream(w))
            for w, chunk in enumerate([34, 33, 33])
        )
        np.testing.assert_array_equal(whole, parts)

    def test_worker_validation(self):
        with pytest.raises(ParamOutOfRange):
            sample_categorical([1.0], 10, RandomStream(0), workers=0)

    @pytest.mark.parametrize("m", [2, 7, 50])
    def test_workers_beyond_m_change_nothing(self, m):
        # chunks w >= m draw nothing, so any workers >= m tallies like workers = m
        probs = [0.2, 0.3, 0.5]
        for seed in range(20):
            want = sample_categorical(probs, m, RandomStream(seed), workers=m)
            for workers in (m + 1, m + 5, 3 * m, 10**12):
                got = sample_categorical(probs, m, RandomStream(seed), workers=workers)
                np.testing.assert_array_equal(got, want)

    def test_chunks_over_the_limit_are_refused_before_any_draw(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no chunk may be drawn")

        monkeypatch.setattr(RandomStream, "generator", refuse)
        for workers in (CHUNK_LIMIT + 1, 10**12):
            with pytest.raises(SizeLimitExceeded):
                sample_categorical([0.5, 0.5], CHUNK_LIMIT + 1, RandomStream(0), workers=workers)

    def test_chunks_at_the_limit_run(self):
        tallies = sample_categorical([0.5, 0.5], 10**6, RandomStream(0), workers=CHUNK_LIMIT)
        assert tallies.sum() == 10**6
        # min(workers, m) counts, so a small m runs under any worker count
        tallies = sample_categorical([0.5, 0.5], CHUNK_LIMIT, RandomStream(0), workers=10**12)
        assert tallies.sum() == CHUNK_LIMIT

    def test_chunk_validation_survives_many_workers(self):
        with pytest.raises(InvalidDistribution):
            sample_categorical([0.5, 0.6], 0, RandomStream(0), workers=4)
        with pytest.raises(InvalidDistribution):
            sample_categorical([1.0], -3, RandomStream(0), workers=4)


class TestEmpiricalChernoff:
    def test_planned_m_meets_failure_budget(self):
        # +/-1 coin with mean 0.3; at the planned M the miss rate must be <= delta
        epsilon, delta = 0.1, 0.05
        plan = chernoff_plan(epsilon, delta)
        mu = 0.3
        p_plus = (1 + mu) / 2
        misses = 0
        for seed in range(1000):
            t = sample_categorical([p_plus, 1 - p_plus], plan.m, RandomStream(seed, (1,)))
            mean = (t[0] - t[1]) / plan.m
            if abs(mean - mu) > epsilon:
                misses += 1
        assert misses / 1000 <= delta


def shot_error(tallies, m) -> float:
    """sqrt(var/m) of m outcomes in {+1, -1, 0} with these (+1, -1, 0) tallies."""
    plus, minus, _ = tallies
    mean = (plus - minus) / m
    return np.sqrt(((plus + minus) / m - mean**2) / m)


class TestErrorBars:
    """Each reported standard error, recomputed from the estimate's own draws."""

    PLAN = ShotPlan(0.1, 0.05, 500)

    def test_each_standard_error_follows_its_formula(self):
        rng = np.random.default_rng(7)
        m = self.PLAN.m
        rho = random_density_matrix(4, rng)
        ch = random_channel(2, 2, rng)
        for est in (
            seqst_sample(rho, PreparationBasis.random_unitary_columns(2, rng), 1, 2, self.PLAN, RandomStream(1)),
            seqst_qpt_sample(ch, 3, 6, self.PLAN, RandomStream(2)),
        ):
            assert np.allclose((est.se_re, est.se_im), [shot_error(t, m) for t in est.tallies], rtol=1e-12, atol=0)
        probs = dcqd_distribution(channel_zoo("bit_flip", p=0.3))
        for _, f, se in dcqd_sample_rows(probs, range(4), self.PLAN, RandomStream(3)):
            assert se == pytest.approx(np.sqrt(f * (1 - f) / m), rel=1e-12, abs=0)
        # One input state: the shot error of its runs, scaled by the inversion's (D+1)/D.
        for n in (1, 2):
            d = 2**n
            est = seqpt_estimate(random_channel(n, 2, rng), 1, 2, 1, self.PLAN, RandomStream(4))
            want = [(d + 1) / d * shot_error(t, m) for t in est.tallies]
            assert np.allclose((est.se_re, est.se_im), want, rtol=1e-12, atol=0)
