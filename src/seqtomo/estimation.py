"""Shot planning, seedable random streams, and categorical outcome sampling.

The shot count for a target precision epsilon and failure probability delta
comes from a two-sided Chernoff/Hoeffding bound for averages of outcomes in
[-1, 1]:

    M = ceil(2 ln(2/delta) / epsilon**2)

which is independent of the system size.

Randomness is counter-based and splittable: a RandomStream is a seed plus a
derivation path, realized as numpy's Philox generator keyed through
SeedSequence spawn keys. Equal (seed, path) gives identical draws across
runs and platforms, and substreams never collide, so shot loops can be
partitioned across workers reproducibly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDistribution, ParamOutOfRange


@dataclass(frozen=True)
class ShotPlan:
    """Number of runs m per measured observable for precision/confidence goals."""

    epsilon: float
    delta: float
    m: int


def chernoff_plan(epsilon: float, delta: float) -> ShotPlan:
    """Plan m = ceil(2 ln(2/delta) / epsilon**2) shots per observable.

    Valid for 0 < epsilon <= 2 (outcomes live in [-1, 1]) and 0 < delta < 1.
    """
    if not 0 < epsilon <= 2:
        raise ParamOutOfRange(f"epsilon must be in (0, 2], got {epsilon}")
    if not 0 < delta < 1:
        raise ParamOutOfRange(f"delta must be in (0, 1), got {delta}")
    m = math.ceil(2.0 * math.log(2.0 / delta) / epsilon**2)
    return ShotPlan(epsilon=epsilon, delta=delta, m=m)


@dataclass(frozen=True)
class RandomStream:
    """A reproducible, splittable source of randomness.

    ``stream`` is the derivation path; ``substream(i)`` extends it. Streams
    with different paths are statistically independent and never share state.
    """

    seed: int
    stream: tuple = ()

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ParamOutOfRange(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    def generator(self) -> np.random.Generator:
        """A fresh counter-based generator for this (seed, path)."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, index: int) -> "RandomStream":
        return RandomStream(self.seed, self.stream + (int(index),))


def sample_categorical(probs, m: int, stream: RandomStream) -> np.ndarray:
    """Draw m outcomes from a categorical distribution; return per-category tallies.

    probs must sum to 1 within 1e-9; entries down to -1e-12 are clamped to 0.
    Deterministic for a given stream.
    """
    p = np.asarray(probs, dtype=float)
    if m < 0:
        raise InvalidDistribution(f"shot count must be nonnegative, got {m}")
    if np.any(p < -1e-12):
        raise InvalidDistribution(f"negative probability {p.min()}")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise InvalidDistribution(f"probabilities sum to {total}, not 1")
    if m == 0:
        return np.zeros(p.size, dtype=np.int64)
    return stream.generator().multinomial(m, p / total).astype(np.int64)


def sample_categorical_partitioned(probs, m: int, stream: RandomStream, workers: int = 1) -> np.ndarray:
    """Tally m draws split across `workers` derived substreams.

    Chunk w draws from stream.substream(w); tallies add commutatively, so the
    result is independent of evaluation order and reproducible per
    (seed, path, workers). Chunks w >= m draw nothing and leave their
    substreams untouched, so only the first min(workers, m) are run.
    """
    if workers < 1:
        raise ParamOutOfRange(f"workers must be >= 1, got {workers}")
    if workers == 1 or m <= 0:
        return sample_categorical(probs, m, stream)
    base, extra = divmod(m, workers)
    tallies = np.zeros(np.asarray(probs).size, dtype=np.int64)
    for w in range(min(workers, m)):
        chunk = base + (1 if w < extra else 0)
        tallies += sample_categorical(probs, chunk, stream.substream(w))
    return tallies
