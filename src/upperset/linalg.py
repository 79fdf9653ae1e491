"""Exact rational scalars and vectors.

Every geometric computation in this package runs over the rationals so that
lattice and duality identities can be checked exactly.  Vectors are plain
tuples of :class:`fractions.Fraction`; matrices are tuples of row vectors.
Extended values (suprema of unbounded programs, empty-set conventions) are
represented by ``math.inf`` / ``-math.inf``, which order correctly against
Fractions, so "extended rational" means ``Fraction | float`` with only the
two infinities allowed as floats.  Code therefore tells an infinity by its
type and sign (``type(s) is float and s > 0`` is +inf), never by ``==``
against ``POS_INF`` / ``NEG_INF``: comparing a Fraction with a float runs
the ``numbers`` ABC checks of ``Fraction``'s comparison, about 40 times the
cost of the type test in CPython 3.11.

``HashedVec`` is a Vec that keeps its hash, for points that key many
cache reads and for directions read many times.

Reports, verdicts and maps are re-checked through one exact JSON form:
``to_json`` writes each Fraction or infinity as ``format_scalar`` does
('3/7', '+inf') and each tuple as a list, and ``from_json`` reads such a
list back as a tuple of exact scalars.

This module holds exact scalars and vectors only.  Elimination (ranks,
kernels, affine solves) is ``geometry``'s integer elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
Ext = Union[Fraction, float]
Constraint = tuple[Vec, Fraction]  # (normal n, offset b) meaning n.z >= b

POS_INF: float = math.inf
NEG_INF: float = -math.inf

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce ints, strings like ``"3/7"`` or ``"0.25"``, and Fractions.

    Floats are rejected: binary floats silently denormalize rational data.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def vec(values: Iterable) -> Vec:
    return tuple(v if type(v) is Fraction else frac(v) for v in values)


class HashedVec(tuple):
    """A Vec that computes its hash once: it compares and hashes like the
    plain tuple of its Fractions.  A Fraction's hash is a modular inverse
    in pure Python, so a point that keys many cache reads carries it.

    Its entries are Fractions already, so readers take it as it is, without
    ``vec``.  Two kinds are kept and read many times: a map's x-samples,
    one object per point, which key its value cache, so a hit matches by
    identity; and the directions of a default ``DirectionBase``, on which
    ``Polyhedron.support`` keeps the integer form of its first read."""

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = h = tuple.__hash__(self)
            return h


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), ZERO)


def norm1(a: Vec) -> Fraction:
    return sum((abs(x) for x in a), ZERO)


def norminf(a: Vec) -> Fraction:
    return max((abs(x) for x in a), default=ZERO)


def norm2_sq(a: Vec) -> Fraction:
    return sum((x * x for x in a), ZERO)


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def scale_to_canonical(a: Vec) -> Vec:
    """Canonical representative of a ray direction.

    Divides by the largest absolute entry, keeping orientation; used to
    deduplicate generators.  Zero vectors pass through unchanged.
    """
    m = norminf(a)
    if m == 0:
        return a
    return tuple(x / m for x in a)


def format_scalar(x: Ext) -> str:
    """Stable string form for reports: '3/7', '2', '+inf', '-inf'."""
    if isinstance(x, float):
        if math.isinf(x):
            return "+inf" if x > 0 else "-inf"
        raise ValueError(f"non-infinite float {x!r} in exact context")
    return str(x)


def parse_scalar(s) -> Ext:
    """The scalar that ``format_scalar`` wrote; an int or a string like
    '0.25' reads exactly too."""
    if isinstance(s, str) and s in ("+inf", "inf"):
        return POS_INF
    if isinstance(s, str) and s == "-inf":
        return NEG_INF
    if isinstance(s, float):
        if math.isinf(s):
            return s
        raise ValueError("floats are not accepted as rational input")
    return frac(s)


def to_json(value):
    """The exact JSON form of a value: a Fraction or +-inf as
    ``format_scalar`` writes it, a tuple or list as a list, a dict value by
    value; anything else (counts, flags, notes) passes through as it is."""
    if isinstance(value, (Fraction, float)):
        return format_scalar(value)
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    return value


def from_json(data):
    """The inverse of ``to_json`` on scalars and nested lists of them: a
    list reads as a tuple, a scalar through ``parse_scalar``."""
    if isinstance(data, list):
        return tuple(from_json(v) for v in data)
    return parse_scalar(data)
