"""Torus knots and formal connected sums with mirrors.

A ``KnotExpression`` is the universal knot input of the package: a finite
multiset of positive torus knots, each carrying an orientation sign
(+1 for T(p,q), -1 for its mirror -T(p,q)).  The empty expression is the
unknot.  Expressions are kept in a canonical sorted form so that equal
knots have equal string representations (used as cache keys).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd

from .errors import ValidationError, exact_int

_SIGN = "summand sign must be +1 or -1"

# The longest valid prefix of a summand: an optional '-', then 'U' or 'T(p,q)', whitespace
# anywhere between.  Every step may be empty, so it always matches; the summand is whole
# when the last group matched is `u` or `close`, and otherwise that group says what must
# follow.  An empty alternative `(?:...|)` marks a step optional: `re` matches it faster
# than `(?:...)?`.  [0-9], not \d: \d and str.isdigit accept the digits of other scripts too.
_SUMMAND = re.compile(
    r"\s*(?:(?P<sign>-)\s*|)(?:(?P<u>[Uu])|(?P<t>[Tt])\s*(?:(?P<open>\()\s*(?:(?P<p>[0-9]+)\s*"
    r"(?:(?P<comma>,)\s*(?:(?P<q>[0-9]+)\s*(?:(?P<close>\))|)|)|)|)|)|)\s*"
)
_TERM = "'T(p,q)' or 'U'"
_EXPECTED = {None: _TERM, "sign": _TERM, "t": "'('", "open": "an integer", "p": "','", "comma": "an integer",
             "q": "')'", "u": "'#' between summands", "close": "'#' between summands"}


@dataclass(frozen=True)
class TorusKnot:
    """The (p,q) torus knot, canonicalised so that 2 <= p < q, gcd(p,q) = 1."""

    p: int
    q: int

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if p.__class__ is not int or q.__class__ is not int:  # the class test first: plain ints are hot
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
    def torus(cls, p: int, q: int) -> "KnotExpression":
        """T(p,q) alone; its mirror is -KnotExpression.torus(p, q)."""
        return cls(((TorusKnot(p, q), 1),))

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
    Whitespace is ignored everywhere; an int is ASCII digits.  One pattern match
    reads each summand, as its longest valid prefix; then a '#' or the end of the
    text must follow.  Errors come in the order the summand reads: an integer
    too long to convert, then a pair that is no torus knot (non-coprime,
    parameter < 2), then a syntax error at the end of that prefix, naming what
    was expected there.
    """
    if not isinstance(text, str):
        raise ValidationError("knot expression must be a string")
    summands: list[tuple[TorusKnot, int]] = []
    i = 0
    while True:
        m = _SUMMAND.match(text, i)
        last = m.lastgroup
        pair = _integers(m) if m["p"] is not None else ()
        if last == "close":
            summands.append((TorusKnot(*pair), -1 if m["sign"] else 1))
        i = m.end()
        if last == "close" or last == "u":  # the unknot, mirrored or not, contributes nothing
            if i == len(text):
                return KnotExpression(tuple(summands))
            if text[i] == "#":
                i += 1
                continue
        raise ValidationError(f"syntax error at position {i}: expected {_EXPECTED[last]}")


def _integers(m: re.Match) -> list[int]:
    """The integers of the summand matched so far, p before q; the pattern admits only ASCII digits."""
    values = []
    for g in ("p", "q"):
        if m[g] is not None:
            try:
                values.append(int(m[g]))
            except ValueError:  # longer than the interpreter's digit limit
                raise ValidationError(f"integer at position {m.start(g)} has too many digits") from None
    return values
