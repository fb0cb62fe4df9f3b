"""DBM kernel: encoded bounds, canonical DBMs, and federations of zones."""

from .bounds import (
    INF,
    LE_ZERO,
    LT_ZERO,
    add_bounds,
    bound,
    bound_as_string,
    bound_value,
    decode,
    is_strict,
    le,
    lt,
    negate,
)
from .dbm import DBM, Constraint, scale
from .federation import Federation, subtract_zone
from .minform import (
    ZoneFormatError,
    federation_from_obj,
    federation_to_obj,
    minimal_constraints,
    verified_minimal_constraints,
    zone_from_obj,
    zone_to_obj,
)

__all__ = [
    "INF",
    "LE_ZERO",
    "LT_ZERO",
    "add_bounds",
    "bound",
    "bound_as_string",
    "bound_value",
    "decode",
    "is_strict",
    "le",
    "lt",
    "negate",
    "DBM",
    "Constraint",
    "scale",
    "Federation",
    "subtract_zone",
    "ZoneFormatError",
    "federation_from_obj",
    "federation_to_obj",
    "minimal_constraints",
    "verified_minimal_constraints",
    "zone_from_obj",
    "zone_to_obj",
]
