"""``repro.gen.differential._random_delay`` against its grid reference.

The library draws a random half-integer delay by index over the
admissible points of the grid ``lo + k/2``.  The reference below is the
body it replaced, which builds the grid as a list of Fractions and
filters it.  Both must return the same value *and* leave the RNG in the
same state, so every seeded campaign replays unchanged.
"""

import random
from fractions import Fraction
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen.differential import _random_delay
from repro.semantics.system import DelayInterval


def reference_random_delay(
    rng: random.Random,
    interval: DelayInterval,
    bound: Optional[Fraction],
    bound_strict: bool,
) -> Optional[Fraction]:
    lo, lo_strict = interval.lo, interval.lo_strict
    hi, hi_strict = interval.hi, interval.hi_strict
    if bound is not None and (hi is None or bound < hi):
        hi, hi_strict = bound, bound_strict
    if hi is not None and (lo > hi or (lo == hi and (lo_strict or hi_strict))):
        return None
    if hi is None:
        hi, hi_strict = lo + 2, False
    grid = [
        d
        for k in range(int((hi - lo) * 2) + 1)
        if (d := lo + Fraction(k, 2)) is not None
        and (d > lo or not lo_strict)
        and (d < hi or (d == hi and not hi_strict))
        and interval.contains(d)
    ]
    if grid:
        return rng.choice(grid)
    mid = (lo + hi) / 2
    return mid if interval.contains(mid) else None


def fractions(max_numerator: int = 30):
    return st.builds(
        Fraction,
        st.integers(min_value=0, max_value=max_numerator),
        st.integers(min_value=1, max_value=10),
    )


@settings(max_examples=600, deadline=None)
@given(
    lo=fractions(),
    lo_strict=st.booleans(),
    width=st.none() | fractions(12),
    hi_strict=st.booleans(),
    bound=st.none() | fractions(40),
    bound_strict=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_random_delay_matches_the_grid_reference(
    lo, lo_strict, width, hi_strict, bound, bound_strict, seed
):
    hi = None if width is None else lo + width
    interval = DelayInterval(lo, lo_strict, hi, hi_strict)
    got_rng, ref_rng = random.Random(seed), random.Random(seed)
    got = _random_delay(got_rng, interval, bound, bound_strict)
    ref = reference_random_delay(ref_rng, interval, bound, bound_strict)
    assert got == ref
    assert got_rng.random() == ref_rng.random()
