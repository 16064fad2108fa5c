"""Exception types, and the one exact-input rule: `exact_int`, `exact_rational`, `decimal_int`.

Every integer input of the package is an int and every rational input an
int, a Fraction or a string that parses exactly; bools and floats are
neither, and raise `ValidationError` instead of being rounded or converted.
An integer given as text is an optional '-' and ASCII digits, as in knot
expressions, within the interpreter's digit limit, and a rational given as
text is such an integer, optionally followed by '/' or '.' and more digits.
The message, built only on failure, is "<what>, got <value!r>", or what()
when `what` is callable.
"""

from __future__ import annotations

import re
from fractions import Fraction

# A rational as text, surrounding whitespace aside: the `decimal_int` rule for the
# numerator, then ASCII digits after a '/' or a decimal point.
_RATIONAL = re.compile(r"-?[0-9]+(?:[/.][0-9]+)?")


class KnotwindError(Exception):
    """Base class for all package errors."""


class ValidationError(KnotwindError, ValueError):
    """An input violates a documented precondition."""


class InternalCheckError(KnotwindError, RuntimeError):
    """An internal consistency assertion failed; the result was discarded."""


class TruncationInstabilityError(InternalCheckError):
    """A homological value changed between truncation orders N and N+1."""


def exact_int(value: object, what, low: int | None = None) -> int:
    """`value` if it is an int, not a bool, and at least `low`."""
    is_int = value.__class__ is int or isinstance(value, int) and not isinstance(value, bool)
    if is_int and (low is None or value >= low):  # the class test first: plain ints are hot
        return value
    raise ValidationError(what() if callable(what) else f"{what}, got {value!r}")


def decimal_int(text: str, what) -> int:
    """`text` as an int if, surrounding whitespace aside, it is an optional '-' and ASCII digits.

    int() alone also reads '+3', '1_0' and the digits of other scripts.
    """
    digits = text.strip().removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:
            pass  # longer than the interpreter's digit limit
    raise ValidationError(what() if callable(what) else f"{what}, got {text!r}")


def exact_rational(value: object, what) -> Fraction:
    """`value` as a Fraction: a Fraction, an int (not a bool), or a string such as '-7/2' or '0.5'.

    Fraction() alone also reads '+7/2', '35e-1', '1_5/2' and the digits of other scripts.
    A Fraction is immutable, so one is returned as it is.
    """
    if value.__class__ is Fraction:
        return value
    if isinstance(value, Fraction) or isinstance(value, str) and _RATIONAL.fullmatch(value.strip()):
        try:
            return Fraction(value)
        except (ZeroDivisionError, ValueError):
            pass  # a zero denominator or too many digits: rejected below, as any other non-integer
    return Fraction(exact_int(value, what))
