"""Exact-rational weight vectors and the weight literal grammar.

A weight is a coordinate vector over a family's distinguished basis of h*,
held as exact `fractions.Fraction` entries; equality is exact coordinate-wise
comparison and no floating point is used anywhere.

The literal grammar (CLI flags, multiplicity-table files, JSON output)
writes coordinates as rationals `p/q` separated by commas.  Block separators
are allowed where a family splits its basis: `|` between even blocks and
`;` after a leading coordinate, e.g. `3,-1|2` or `0;1/2,-3/2`.  Parsing
treats all three separators alike; family-aware validation and rendering
live on the root datum.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

_SEP = re.compile(r"[|;]")
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")


def rational(text: str) -> Fraction:
    """Parse a `p` or `p/q` literal, or any other form Fraction reads
    (`0.5`, `1_0`, ` 1e1 `), into an exact rational; a malformed literal, a
    zero denominator included, raises ValueError, and so does an exponent
    above sys.get_int_max_str_digits() in absolute value, before it is built.

    >>> rational("-3/2")
    Fraction(-3, 2)
    """
    text = text.strip()
    exponent, limit = _EXPONENT.search(text), sys.get_int_max_str_digits()
    if exponent and limit and abs(int(exponent[1])) > limit:
        raise ValueError(f"exponent outside -{limit}..{limit} in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value: Fraction | int) -> str:
    """Render a Fraction or an int as `p` or `p/q` (no spaces, no floats).

    >>> format_rational(Fraction(-3, 2))
    '-3/2'
    >>> format_rational(Fraction(4, 2))
    '2'
    """
    return str(value)  # Fraction prints `p` or `p/q`, an int `p`


class Weight:
    """An element of h* in a fixed basis; immutable, exact and hashable."""

    __slots__ = ("coords", "_hash")  # _hash is set by the first __hash__

    def __init__(self, coords: Iterable[Fraction | int | str]):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    @classmethod
    def _of(cls, coords: tuple[Fraction, ...]) -> "Weight":
        """The weight with these coordinates, which must already be a tuple of
        Fractions; skips the conversion __init__ makes."""
        w = object.__new__(cls)
        object.__setattr__(w, "coords", coords)
        return w

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self.coords == other.coords

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self.coords)
            object.__setattr__(self, "_hash", h)
        return h

    def __lt__(self, other: "Weight") -> bool:
        # lexicographic; used only to make orderings deterministic
        return self.coords < other.coords

    def __add__(self, other: "Weight") -> "Weight":
        if len(self) != len(other):
            raise ValueError("weight dimensions differ")
        return Weight(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Weight") -> "Weight":
        if len(self) != len(other):
            raise ValueError("weight dimensions differ")
        return Weight(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "Weight":
        return Weight(-a for a in self.coords)

    def scale(self, c: Fraction | int) -> "Weight":
        c = Fraction(c)
        return Weight(c * a for a in self.coords)

    def __repr__(self) -> str:
        return f"Weight({format_weight(self)!r})"


def parse_weight(text: str, dim: int | None = None) -> Weight:
    """Parse a weight literal, treating `,`, `|` and `;` as separators; an
    empty coordinate (`1,,2`, a leading or trailing separator) is refused.

    >>> parse_weight("3,-1|2").coords
    (Fraction(3, 1), Fraction(-1, 1), Fraction(2, 1))
    """
    flat = _SEP.sub(",", text.strip())
    if not flat:
        raise ValueError(f"empty weight literal: {text!r}")
    parts = flat.split(",")
    if any(not p.strip() for p in parts):
        raise ValueError(f"empty coordinate in weight literal {text!r}")
    w = Weight(rational(p) for p in parts)
    if dim is not None and len(w) != dim:
        raise ValueError(f"weight literal {text!r} has {len(w)} coordinates, expected {dim}")
    return w


def format_weight(w: Weight, seps: Sequence[tuple[int, str]] = ()) -> str:
    """Render a weight; `seps` lists (position, separator) block markers.

    A marker (k, '|') prints '|' in place of the comma before coordinate k.

    >>> format_weight(Weight([3, -1, 2]), [(2, "|")])
    '3,-1|2'
    """
    marks = dict(seps)
    out = []
    for i, c in enumerate(w.coords):
        if i > 0:
            out.append(marks.get(i, ","))
        out.append(format_rational(c))
    return "".join(out)
