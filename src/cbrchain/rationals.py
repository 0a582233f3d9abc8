"""Exact rational helpers.

All analytic quantities in this package are :class:`fractions.Fraction`
values (arbitrary-precision, always in lowest terms, positive denominator).
This module owns the text grammar used everywhere a rational crosses a file
or CLI boundary: an optional sign, an integer, and optionally ``/`` followed
by a positive integer, e.g. ``7``, ``-2/5``, ``13/27``.

The exact sums of ``markov`` and ``library`` run over integers:
:func:`over_common_denominator` puts the terms over their least common
denominator, and one Fraction is built from the numerators' total.

Decimal rendering is presentation-only and never feeds back into
computation.
"""

from __future__ import annotations

import decimal
import functools
import math
import re
import sys
from fractions import Fraction

from .errors import InvalidRational

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

#: Significant digits of every decimal rendering.
DIGITS = 6


def parse_rational(text: str) -> Fraction:
    """Parse ``text`` as an exact rational.

    Raises InvalidRational if the string does not match the grammar, has a
    zero denominator, or has more digits than the interpreter converts
    (``sys.get_int_max_str_digits()``).
    """
    s = text.strip()
    if _RATIONAL_RE.match(s) is None:
        raise InvalidRational(f"not a rational number: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise InvalidRational(f"denominator must be positive: {text!r}") from exc
    except ValueError as exc:  # the interpreter's int/str digit limit
        raise InvalidRational(str(exc)) from exc


def coerce_rational(value) -> Fraction:
    """Convert an int, Fraction, or rational string to a Fraction.

    Floats are rejected: binary floats would silently break the exactness
    guarantees of the analytic path. Anything else raises InvalidRational.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidRational(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InvalidRational(
        f"not an exact rational: {value!r} ({type(value).__name__})"
    )


def over_common_denominator(values) -> tuple[list[int], int]:
    """The integer numerators of the rationals ``values`` over their least
    common denominator, and that denominator; ``([], 1)`` for no values.

    ``values`` is a collection of Fractions or ints, read twice.
    """
    lcd = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (lcd // v.denominator) for v in values], lcd


def format_rational(q: Fraction) -> str:
    """Render exactly; the result round-trips through :func:`parse_rational`.

    The text is ``str(q)``. A numerator or denominator with more digits than
    the interpreter converts to text raises InvalidRational, whose message
    shows ``q`` rounded and marked ``(rounded)``.
    """
    try:
        if q.denominator == 1:
            return _digits(q.numerator)
        return f"{_digits(q.numerator)}/{_digits(q.denominator)}"
    except ValueError as exc:  # the interpreter's int/str digit limit
        raise InvalidRational(
            f"{_rounded(q)} (rounded) has too many digits to render exactly: {exc}"
        ) from exc


@functools.lru_cache(maxsize=64)
def _digits(n: int) -> str:
    """``str(n)``, remembered for the last few integers rendered.

    Converting an integer to decimal text takes time quadratic in its
    length, and evolved distributions repeat theirs: a phase's R2 is the
    previous phase's R1, and the phases share denominators.
    """
    return str(n)


def decimal_str(q: Fraction) -> str:
    """Render to ``DIGITS`` significant decimal digits, for display only.

    A value beyond float range, or a nonzero value that a float would
    flush to zero or hold as a subnormal with fewer digits, is rounded in
    decimal arithmetic instead.
    """
    try:
        value = float(q)
    except OverflowError:
        return _rounded(q)
    if q and abs(value) < sys.float_info.min:
        return _rounded(q)
    return f"{value:.{DIGITS}g}"


def _rounded(q: Fraction) -> str:
    """``q`` to ``DIGITS`` significant digits at any magnitude, like ``%g``."""
    ctx = decimal.Context(prec=DIGITS, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    value = ctx.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))
    return f"{value.normalize(ctx):.{DIGITS}g}"
