"""Dense GF(2) linear algebra on Python-int bit rows.

One primitive: `BitSpace`, a row-echelon span.  Ranks are all the tower
search needs; a row's pivot (its highest set bit) also tells which part of
a concatenated row it was left with after reduction.
"""

from __future__ import annotations


class BitSpace:
    """A subspace of F_2^n held as echelonised rows keyed by pivot bit."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}

    def reduce(self, v: int) -> int:
        """Reduce v against the stored rows; a nonzero result has a new pivot."""
        rows = self.rows
        while v:
            row = rows.get(v.bit_length() - 1)
            if row is None:
                return v
            v ^= row
        return 0

    def add(self, v: int) -> bool:
        """Insert v; True when it enlarged the space."""
        v = self.reduce(v)
        if not v:
            return False
        self.rows[v.bit_length() - 1] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0
