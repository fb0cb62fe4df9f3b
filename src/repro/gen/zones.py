"""Seeded random zones and federations, plus kernel algebra self-checks.

Generalizes the axis-aligned box strategies of ``tests/zone_strategies``:
zones here mix upper/lower bounds with *diagonal* constraints, and
federations hold several overlapping member zones.  Unlike the hypothesis
strategies (which drive the property-test suite), these generators run
off a plain ``random.Random`` so the differential CLI can reproduce any
failure from a printed integer seed.

:func:`check_zone_algebra` is the membership-differential oracle: every
DBM/federation operation is compared, on sampled rational points, against
its set-theoretic definition evaluated directly on the points.  Exact
identities (inclusion vs. subtraction emptiness, ``compact`` preserving
semantics, ``predt`` bounds) are checked exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Sequence

from ..dbm import DBM, Federation, bound, subtract_zone
from ..game.predt import predt


def random_zone(
    rng: random.Random,
    dim: int = 4,
    max_constraints: int = 6,
    lo: int = -8,
    hi: int = 12,
    diagonal_prob: float = 0.5,
) -> DBM:
    """A random canonical zone (may be empty).

    With probability ``diagonal_prob`` each constraint relates two real
    clocks (``x_i - x_j ≺ b``) instead of bounding one against zero.
    """
    zone = DBM.universal(dim)
    for _ in range(rng.randint(0, max_constraints)):
        if dim > 2 and rng.random() < diagonal_prob:
            i, j = rng.sample(range(1, dim), 2)
        else:
            i = rng.randrange(dim)
            j = 0 if i else rng.randrange(1, dim)
        value = rng.randint(lo, hi)
        strict = rng.random() < 0.5
        zone = zone.tighten(i, j, bound(value, strict))
        if zone.is_empty():
            break
    return zone


def random_federation(
    rng: random.Random,
    dim: int = 4,
    max_zones: int = 4,
    **kwargs,
) -> Federation:
    """A random federation of 0..max_zones random zones."""
    return Federation(
        dim, [random_zone(rng, dim, **kwargs) for _ in range(rng.randint(0, max_zones))]
    )


def random_point(
    rng: random.Random, dim: int = 4, hi: int = 24
) -> List[Fraction]:
    """A random quarter-integer clock valuation (index 0 is the 0-clock)."""
    return [Fraction(0)] + [
        Fraction(rng.randint(0, hi * 4), 4) for _ in range(dim - 1)
    ]


def _sample_points(
    rng: random.Random, dim: int, sets: Sequence, count: int = 3
) -> List[List[Fraction]]:
    """Random points: uniform ones plus points inside the given sets."""
    points = [random_point(rng, dim) for _ in range(count)]
    for s in sets:
        p = s.sample_random(rng)
        if p is not None:
            points.append(list(p))
            shifted = [p[0]] + [v + Fraction(rng.randint(0, 4), 2) for v in p[1:]]
            points.append(shifted)
    return points


def check_zone_algebra(
    rng: random.Random, dim: int = 4, trials: int = 25
) -> List[str]:
    """Differential checks of the DBM kernel; returns failure details."""
    failures: List[str] = []

    def expect(condition: bool, detail: str) -> None:
        if not condition:
            failures.append(detail)

    for trial in range(trials):
        a = random_zone(rng, dim)
        b = random_zone(rng, dim)
        f = random_federation(rng, dim)
        g = random_federation(rng, dim)
        points = _sample_points(rng, dim, [z for z in (a, b) if z] + [f, g])

        # -- zone operations vs. membership ---------------------------------
        inter = a.intersect(b)
        for p in points:
            expect(
                inter.contains(p) == (a.contains(p) and b.contains(p)),
                f"trial {trial}: intersect membership mismatch at {p}",
            )
            union = Federation(dim, [a, b])
            expect(
                union.contains(p) == (a.contains(p) or b.contains(p)),
                f"trial {trial}: union membership mismatch at {p}",
            )
            diff = Federation(dim, subtract_zone(a, b))
            expect(
                diff.contains(p) == (a.contains(p) and not b.contains(p)),
                f"trial {trial}: subtract_zone membership mismatch at {p}",
            )
            if a.contains(p):
                d = Fraction(rng.randint(0, 8), 2)
                shifted = [p[0]] + [v + d for v in p[1:]]
                expect(
                    a.up().contains(shifted),
                    f"trial {trial}: up() lost delay successor at {shifted}",
                )
                expect(
                    a.down().contains(p) and a.up().contains(p),
                    f"trial {trial}: up/down not inflationary at {p}",
                )
            reset = a.reset_pred([1])
            mapped = list(p)
            mapped[1] = Fraction(0)
            expect(
                reset.contains(p) == a.contains(mapped),
                f"trial {trial}: reset_pred membership mismatch at {p}",
            )
            c = rng.randint(0, 6)
            assigned = a.assign_pred([(dim - 1, c)])
            mapped = list(p)
            mapped[dim - 1] = Fraction(c)
            expect(
                assigned.contains(p) == a.contains(mapped),
                f"trial {trial}: assign_pred membership mismatch at {p}",
            )

        # -- exact identities ----------------------------------------------
        expect(
            a.includes(b) == (not subtract_zone(b, a)),
            f"trial {trial}: DBM.includes disagrees with subtraction",
        )
        expect(
            f.includes(g) == g.subtract(f).is_empty(),
            f"trial {trial}: Federation.includes disagrees with subtraction",
        )
        expect(
            f.compact().equals(f),
            f"trial {trial}: compact() changed federation semantics",
        )

        # -- federation operations vs. membership ---------------------------
        fg = f.intersect(g)
        sub = f.subtract(g)
        for p in points:
            expect(
                fg.contains(p) == (f.contains(p) and g.contains(p)),
                f"trial {trial}: federation intersect mismatch at {p}",
            )
            expect(
                sub.contains(p) == (f.contains(p) and not g.contains(p)),
                f"trial {trial}: federation subtract mismatch at {p}",
            )

        # -- predt bounds ----------------------------------------------------
        strict = predt(f, g, lenient=False)
        lenient = predt(f, g, lenient=True)
        expect(
            lenient.includes(strict),
            f"trial {trial}: predt lenient does not include strict",
        )
        expect(
            f.down().includes(lenient),
            f"trial {trial}: predt escapes down(goal)",
        )
        no_bad = predt(f, Federation.empty(dim), lenient=False)
        expect(
            no_bad.equals(f.down()),
            f"trial {trial}: predt(goal, empty) != down(goal)",
        )
    return failures
