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

from .errors import InvalidDistribution, ParamOutOfRange, SizeLimitExceeded

# numpy draws a multinomial count as a signed 64-bit integer, so a plan's
# shot count stays below this.
SHOT_LIMIT = 2**63

# The most chunks, each with its own generator, that one estimate draws from:
# a draw split across workers, or every state's draws in a SEQPT estimate.
CHUNK_LIMIT = 4096


@dataclass(frozen=True)
class ShotPlan:
    """Number of runs m per measured observable for precision/confidence goals."""

    epsilon: float
    delta: float
    m: int


def chernoff_plan(epsilon: float, delta: float) -> ShotPlan:
    """Plan m = ceil(2 ln(2/delta) / epsilon**2) shots per observable.

    Valid for 0 < epsilon <= 2 (outcomes live in [-1, 1]) and 0 < delta < 1;
    a plan of 2**63 or more shots raises SizeLimitExceeded.
    """
    if not 0 < epsilon <= 2:
        raise ParamOutOfRange(f"epsilon must be in (0, 2], got {epsilon}")
    if not 0 < delta < 1:
        raise ParamOutOfRange(f"delta must be in (0, 1), got {delta}")
    # An epsilon**2 that underflows to 0 asks for unboundedly many shots.
    m = 2.0 * math.log(2.0 / delta) / max(epsilon**2, math.ulp(0.0))
    if not m < SHOT_LIMIT:
        raise SizeLimitExceeded(f"epsilon={epsilon}, delta={delta} need {m:.3g} shots per observable, not below 2**63")
    return ShotPlan(epsilon=epsilon, delta=delta, m=math.ceil(m))


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


def sample_categorical(probs, m: int, stream: RandomStream, workers: int = 1) -> np.ndarray:
    """Draw m outcomes from a categorical distribution; return per-category tallies.

    probs must sum to 1 within 1e-9 (a NaN fails); entries down to -1e-12 are clamped to 0.
    One worker draws all m from ``stream``. With k > 1 workers the m draws
    are split into k near-equal chunks and chunk w draws from
    ``stream.substream(w)``; tallies add commutatively, so the result is
    reproducible per (seed, path, workers). Chunks w >= m draw nothing and
    leave their substreams untouched, so only the first min(k, m) run; more
    than CHUNK_LIMIT of them raise SizeLimitExceeded before any draw.
    """
    if workers < 1:
        raise ParamOutOfRange(f"workers must be >= 1, got {workers}")
    chunks = min(workers, m)
    if workers > 1 and chunks > 0:
        check_chunks(chunks)
    p = np.asarray(probs, dtype=float)
    if m < 0:
        raise InvalidDistribution(f"shot count must be nonnegative, got {m}")
    # Two reductions: initial=0.0 lets an empty vector reach the sum check.
    low = p.min(initial=0.0)
    if low < -1e-12:
        raise InvalidDistribution(f"negative probability {low}")
    if low < 0.0:
        p = np.maximum(p, 0.0)
    total = p.sum()
    if not abs(total - 1.0) <= 1e-9:  # written so that a NaN total fails too
        raise InvalidDistribution(f"probabilities sum to {total}, not 1")
    if m == 0:
        return np.zeros(p.size, dtype=np.int64)
    if workers == 1:
        return stream.generator().multinomial(m, p / total).astype(np.int64)
    base, extra = divmod(m, workers)
    tallies = np.zeros(p.size, dtype=np.int64)
    for w in range(chunks):
        tallies += stream.substream(w).generator().multinomial(base + (w < extra), p / total)
    return tallies


def check_chunks(chunks: int) -> None:
    """Refuse more than CHUNK_LIMIT generator chunks with SizeLimitExceeded, before any draw."""
    if chunks > CHUNK_LIMIT:
        raise SizeLimitExceeded(f"{chunks} worker chunks exceed the limit of {CHUNK_LIMIT}")
