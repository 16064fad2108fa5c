"""Torus knots and formal connected sums with mirrors.

A ``KnotExpression`` is the universal knot input of the package: a finite
multiset of positive torus knots, each carrying an orientation sign
(+1 for T(p,q), -1 for its mirror -T(p,q)).  The empty expression is the
unknot.  Expressions are kept in a canonical sorted form so that equal
knots have equal string representations (used as cache keys).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ValidationError, decimal_int, exact_int

_SIGN = "summand sign must be +1 or -1"


@dataclass(frozen=True)
class TorusKnot:
    """The (p,q) torus knot, canonicalised so that 2 <= p < q, gcd(p,q) = 1."""

    p: int
    q: int

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        for v in (p, q):
            exact_int(v, lambda: f"torus knot parameters must be integers, got ({p!r},{q!r})")
        if p > q:
            p, q = q, p
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "q", q)
        if p < 2:
            raise ValidationError(
                f"torus knot parameters must both be >= 2, got ({p},{q}); "
                "spell the unknot as the empty expression 'U'"
            )
        if gcd(p, q) != 1:
            raise ValidationError(f"torus knot parameters ({p},{q}) are not coprime")

    @property
    def genus(self) -> int:
        return (self.p - 1) * (self.q - 1) // 2

    def __str__(self) -> str:
        return f"T({self.p},{self.q})"


@dataclass(frozen=True)
class KnotExpression:
    """Connected sum of signed torus knots; the empty sum is the unknot."""

    summands: tuple[tuple[TorusKnot, int], ...] = ()

    def __post_init__(self) -> None:
        cleaned = []
        for item in self.summands:
            try:
                knot, sign = item
            except (TypeError, ValueError):
                raise ValidationError(f"summand {item!r} is not a (TorusKnot, sign) pair") from None
            if not isinstance(knot, TorusKnot):
                raise ValidationError(f"summand knot {knot!r} is not a TorusKnot")
            if exact_int(sign, _SIGN) not in (1, -1):
                raise ValidationError(f"{_SIGN}, got {sign!r}")
            cleaned.append((knot, sign))
        cleaned.sort(key=lambda ks: (ks[0].p, ks[0].q, 0 if ks[1] > 0 else 1))
        object.__setattr__(self, "summands", tuple(cleaned))

    @classmethod
    def unknot(cls) -> "KnotExpression":
        return cls(())

    @classmethod
    def torus(cls, p: int, q: int, sign: int = 1) -> "KnotExpression":
        return cls(((TorusKnot(p, q), sign),))

    def mirror(self) -> "KnotExpression":
        return KnotExpression(tuple((k, -s) for k, s in self.summands))

    @property
    def genus(self) -> int:
        """Total genus (mirrors count positively)."""
        return sum(k.genus for k, _ in self.summands)

    @property
    def is_unknot(self) -> bool:
        return not self.summands

    @property
    def is_mixed(self) -> bool:
        """True when both orientations occur among the summands."""
        signs = {s for _, s in self.summands}
        return signs == {1, -1}

    def single_positive_torus_knot(self) -> TorusKnot | None:
        if len(self.summands) == 1 and self.summands[0][1] == 1:
            return self.summands[0][0]
        return None

    def __add__(self, other: "KnotExpression") -> "KnotExpression":
        if not isinstance(other, KnotExpression):
            return NotImplemented
        return KnotExpression(self.summands + other.summands)

    def __neg__(self) -> "KnotExpression":
        return self.mirror()

    def __str__(self) -> str:
        if not self.summands:
            return "U"
        return " # ".join(("-" if s < 0 else "") + str(k) for k, s in self.summands)


def as_expression(obj: KnotExpression | TorusKnot) -> KnotExpression:
    """Coerce a bare TorusKnot to the one-summand expression."""
    if isinstance(obj, KnotExpression):
        return obj
    if isinstance(obj, TorusKnot):
        return KnotExpression(((obj, 1),))
    raise ValidationError(f"expected a KnotExpression or TorusKnot, got {obj!r}")


def parse_knot_expr(text: str) -> KnotExpression:
    """Parse an expression such as ``T(2,3) # -T(4,5)``.

    Grammar: expr := term ('#' term)* ; term := ['-'] 'T' '(' int ',' int ')' | 'U'.
    Whitespace is ignored everywhere.  Syntax errors report the offending
    position; semantic errors (non-coprime, parameter < 2) name the pair.
    """
    if not isinstance(text, str):
        raise ValidationError("knot expression must be a string")
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def fail(pos: int, expected: str) -> None:
        raise ValidationError(f"syntax error at position {pos}: expected {expected}")

    def parse_int(i: int) -> tuple[int, int]:
        j = i
        while j < n and "0" <= text[j] <= "9":  # ASCII only: str.isdigit accepts superscripts too
            j += 1
        if j == i:
            fail(i, "an integer")
        return decimal_int(text[i:j], lambda: f"integer at position {i} has too many digits"), j

    summands: list[tuple[TorusKnot, int]] = []
    i = skip_ws(0)
    first = True
    while True:
        if not first:
            i = skip_ws(i)
            if i >= n:
                break
            if text[i] != "#":
                fail(i, "'#' between summands")
            i = skip_ws(i + 1)
        first = False
        sign = 1
        if i < n and text[i] == "-":
            sign = -1
            i = skip_ws(i + 1)
        if i < n and text[i] in "Uu":
            i += 1
            continue  # the unknot (mirrored or not) contributes nothing
        if i >= n or text[i] not in "Tt":
            fail(i, "'T(p,q)' or 'U'")
        i = skip_ws(i + 1)
        if i >= n or text[i] != "(":
            fail(i, "'('")
        i = skip_ws(i + 1)
        p, i = parse_int(i)
        i = skip_ws(i)
        if i >= n or text[i] != ",":
            fail(i, "','")
        i = skip_ws(i + 1)
        q, i = parse_int(i)
        i = skip_ws(i)
        if i >= n or text[i] != ")":
            fail(i, "')'")
        i += 1
        summands.append((TorusKnot(p, q), sign))
    return KnotExpression(tuple(summands))
