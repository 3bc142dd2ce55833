"""Reading rules of the JSON wire format, shared by every reader of it.

A field of the wrong type is a ValueError, never a value read another
way.  An integer is a JSON int, never a bool or a float.  A word is a
list of label strings.  An endpoint is an object with exactly its two
keys.  A coefficient is a string p or p/q of decimal integers, as
`Cyclo.to_json` writes it (no exponent, whose power of ten `Fraction`
would build).  This module imports nothing from affa, so that every
module can use it.
"""

import re
from fractions import Fraction

_ENDPOINTS = (("box", "leg"), ("bnd", "i"), ("anchor", "side"))
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def integer(x, what: str) -> int:
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def items(x, what: str, kind: type = dict) -> list:
    """x, a JSON list of values of type `kind`."""
    if type(x) is not list or not all(type(o) is kind for o in x):
        raise ValueError(f"{what} must be a list of {kind.__name__}")
    return x


def word(x, what: str, labels) -> list:
    """A list of label strings, each read by the enum `labels`."""
    return [labels(s) for s in items(x, what, str)]


def endpoint(e) -> tuple:
    """("box", b, leg), ("bnd", "bottom"|"top", i) or ("anchor", a, s)."""
    if type(e) is dict and len(e) == 2:
        for head, pos in _ENDPOINTS:
            if head in e and pos in e:
                at = e[head] if head == "bnd" else integer(e[head], head)
                if head != "bnd" or at in ("bottom", "top"):
                    return head, at, integer(e[pos], pos)
    raise ValueError(f"malformed endpoint {e!r}")


def scalar(obj) -> tuple[list[Fraction], int]:
    """A scalar {"order": d, "coeffs": [...]} as (coefficients, d > 0)."""
    if type(obj) is not dict or "order" not in obj or "coeffs" not in obj:
        raise ValueError("malformed scalar: expected {order, coeffs}")
    order = integer(obj["order"], "scalar order")
    if order < 1:
        raise ValueError(f"scalar order must be positive, got {order}")
    coeffs = items(obj["coeffs"], "coeffs", str)
    if not all(_RATIONAL.fullmatch(c) for c in coeffs):
        raise ValueError("malformed scalar: coefficients are p or p/q")
    try:
        return [Fraction(c) for c in coeffs], order
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed scalar: {exc}") from None
