"""Encoded difference bounds for DBMs.

A difference bound is a pair ``(b, strictness)`` meaning ``x - y < b`` or
``x - y <= b``.  Following the classic UPPAAL encoding, a bound is stored in
a single integer::

    enc = (b << 1) | (1 if non-strict (<=) else 0)

so that the natural integer order on encodings coincides with the bound
order (a smaller encoding is a tighter constraint), and the unbounded case
is a large sentinel ``INF``.  Addition of bounds (used by Floyd-Warshall
closure) is ``(b1 + b2, <= iff both <=)``, implemented on encodings by
``add_bounds``.
"""

from __future__ import annotations

from typing import Iterable, Tuple

#: Sentinel for "no constraint" (x - y < infinity).  Large enough that no
#: model constant can reach it, small enough that sums never overflow int64.
INF = 1 << 40

#: Largest absolute model constant a clock may be compared against or
#: assigned.  Enforced where constants are encoded (ClockAtom and the
#: helpers below); keeps the drift-tolerant closure sound (see INF_SOFT).
MAX_BOUND_CONST = 1 << 30

#: Drift threshold for the closure kernels: they add bounds *without*
#: per-step INF masking (an INF summed with finite negatives "drifts"
#: below INF) and clamp every entry >= INF_SOFT back to exactly INF once
#: at the end.  Soundness needs (a) drifted infinities to stay above the
#: threshold and (b) finite path bounds to stay below it.  Per closure,
#: drift and finite growth are each bounded by dim * max|encoding|
#: <= dim * 2 * MAX_BOUND_CONST = dim * 2^31, so with the enforced
#: constant cap both hold for dim <= 256: dim * 2^31 <= 2^39 = INF_SOFT
#: = INF - INF_SOFT.  (Clamping after every operation means drift never
#: accumulates across operations.)
INF_SOFT = INF >> 1

#: Encoding of the bound (0, <=): the tightest bound compatible with x == y.
LE_ZERO = 1

#: Encoding of the bound (0, <): used for strict non-negativity.
LT_ZERO = 0

#: A decoded finite bound ``(i, j, b, strict)``: ``x_i - x_j < b`` when
#: strict, else ``x_i - x_j <= b``.
Bound = Tuple[int, int, int, bool]


def check_const(value: int) -> int:
    """Validate a model constant against :data:`MAX_BOUND_CONST`."""
    if not -MAX_BOUND_CONST <= value <= MAX_BOUND_CONST:
        raise ValueError(
            f"clock bound constant {value} exceeds the supported range"
            f" ±{MAX_BOUND_CONST} (see repro.dbm.bounds.MAX_BOUND_CONST)"
        )
    return value


def bound(value: int, strict: bool) -> int:
    """Encode the bound ``x - y < value`` (strict) or ``x - y <= value``."""
    return (check_const(value) << 1) | (0 if strict else 1)


def le(value: int) -> int:
    """Encode ``<= value``."""
    return (check_const(value) << 1) | 1


def lt(value: int) -> int:
    """Encode ``< value``."""
    return check_const(value) << 1


def bound_value(enc: int) -> int:
    """The integer constant of an encoded bound (undefined for INF)."""
    return enc >> 1


def is_strict(enc: int) -> bool:
    """True if the encoded bound is strict (``<``)."""
    return (enc & 1) == 0


def decode(enc: int) -> Tuple[int, bool]:
    """Decode to ``(value, strict)``; INF decodes to ``(INF >> 1, True)``."""
    return enc >> 1, (enc & 1) == 0


def decoded(constraints: Iterable[Tuple[int, int, int]]) -> Tuple[Bound, ...]:
    """The finite ``(i, j, enc)`` constraints as :data:`Bound` tuples."""
    return tuple((i, j, *decode(enc)) for i, j, enc in constraints if enc < INF)


def add_bounds(a: int, b: int) -> int:
    """Sum of two encoded bounds, saturating at INF.

    ``(b1, s1) + (b2, s2) = (b1 + b2, strict if either is strict)``.
    """
    if a >= INF or b >= INF:
        return INF
    return ((a >> 1) + (b >> 1) << 1) | (a & b & 1)


def negate(enc: int) -> int:
    """Encoded negation: the complement of ``x - y ≺ b`` is ``y - x ≺' -b``.

    ``not (x - y <= b)`` is ``y - x < -b``; ``not (x - y < b)`` is
    ``y - x <= -b``.  Undefined for INF (the complement of "true" is empty).
    """
    if enc >= INF:
        raise ValueError("cannot negate an infinite bound")
    value, strict = decode(enc)
    return bound(-value, not strict)


def bound_as_string(enc: int, lhs: str = "x", rhs: str = "") -> str:
    """Human-readable form, e.g. ``x - y <= 3`` or ``x < 5``."""
    if enc >= INF:
        return f"{lhs}{' - ' + rhs if rhs else ''} < inf"
    value, strict = decode(enc)
    op = "<" if strict else "<="
    left = f"{lhs} - {rhs}" if rhs else lhs
    return f"{left} {op} {value}"

