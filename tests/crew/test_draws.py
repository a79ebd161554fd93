"""The two numpy draw equivalences crew truth relies on.

The movement and conversation models draw ``a + (b - a) * rng.random()``
where they once called ``rng.uniform(a, b)``, and
``bisect_right(cdf, rng.random())`` where they once called
``rng.choice(n, p=w)``.  Both forms take the same number from the
stream and return the same value, which keeps crew truth byte-identical
(DESIGN.md §13, the draw-order contract).  A numpy release that changes
either fails here by name instead of in dozens of golden keys.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.crew.conversation import TURN_MAX_S, TURN_MIN_S
from repro.crew.movement import GATHER_RADIUS_M

SEEDS = range(300)


def _twins(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def test_uniform_is_affine_in_random():
    for seed in SEEDS:
        params = np.random.default_rng(10_000 + seed)
        a = float(params.uniform(-20.0, 20.0))
        fixed = [(a, a + float(params.uniform(0.0, 15.0))),
                 (TURN_MIN_S, TURN_MAX_S), (0.3, GATHER_RADIUS_M)]
        called, scalar = _twins(seed)
        for lo, hi in fixed:
            assert called.uniform(lo, hi) == lo + (hi - lo) * scalar.random()
            # Rect.sample draws one point as two size-1 arrays.
            assert called.uniform(lo, hi, size=1)[0] == lo + (hi - lo) * scalar.random()
        assert called.uniform(0.0, 2.0 * np.pi) == 2.0 * np.pi * scalar.random()


def test_choice_is_bisect_of_normalized_cdf():
    for seed in SEEDS:
        params = np.random.default_rng(20_000 + seed)
        weights = params.random(int(params.integers(2, 7)))
        weights = weights / weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
        called, scalar = _twins(seed)
        for _ in range(8):
            assert int(called.choice(weights.size, p=weights)) == bisect_right(
                cdf, scalar.random())
