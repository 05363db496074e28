"""Small exact-arithmetic helpers shared across the engine.

All game-relevant quantities are `fractions.Fraction`; these utilities cover
the places where plain Fraction arithmetic is not quite enough: the exact
floor log2 of an integer ratio p/q (for charge levels, so that readers of
the integer cost matrix build no Fraction), the certificate's irrational
gate decided exactly, harmonic numbers as integer pairs (for the
potential), and the "p/q" string round-trip used by every serialized
artifact, with Python's int/str digit limit lifted for it alone.
"""

from __future__ import annotations

import bisect
import math
import re
import sys
from fractions import Fraction

from .errors import ConfigError

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str | int) -> Fraction:
    """Parse "p/q" (or a bare integer) into a Fraction.

    Only integer numerators/denominators are accepted; this is the on-disk
    format, so reject floats (decimal and exponent forms too) loudly instead
    of guessing.
    """
    if isinstance(text, bool):
        raise ConfigError(f"expected a rational, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ConfigError(f"expected a rational 'p/q' string, got {text!r}")
    body = text.strip()
    if not _RATIONAL.fullmatch(body):
        raise ConfigError(f"bad rational {text!r}: expected integer 'p' or 'p/q'")
    try:
        return _any_digits(Fraction, body)
    except ZeroDivisionError as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Inverse of parse_rational: "p" for integers, "p/q" otherwise."""
    return _any_digits(str, Fraction(value))


def _any_digits(convert, value):
    """convert(value), Python's int/str digit limit lifted for it alone."""
    try:
        return convert(value)
    except ValueError:  # past the limit, so this Python has one
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return convert(value)
        finally:
            sys.set_int_max_str_digits(limit)


def floor_log2_ratio(p: int, q: int) -> int:
    """Largest j with 2**j <= p/q for ints p, q > 0, in lowest terms or not."""
    if p <= 0 or q <= 0:  # the sign, without a Fraction comparison
        raise ValueError(f"log2 of a non-positive ratio {p}/{q}")
    # 2**(j-1) < p/q < 2**(j+1), so the answer is j or j - 1
    j = p.bit_length() - q.bit_length()
    return j if pow2_le(j, p, q) else j - 1


def within_log_gate(ratio: Fraction, n: int) -> bool:
    """ratio <= 32 (log2 n + 1), exactly, for an int n >= 1.  With x = ratio
    / 32 - 1 = p / q in lowest terms, that is x <= log2 n: true if p <= 0,
    else 2^p <= n^q, decided on a bracket lo 2^e <= n^q <= hi 2^e of ints
    cut to t bits (lo down, hi up) at each step of a square-and-multiply.
    t doubles until the bracket decides, as it does once t covers n^q."""
    x = Fraction(ratio) / 32 - 1
    p, q, t = x.numerator, x.denominator, 64
    while p > 0:
        lo, hi, e = 1, 1, 0
        for bit in bin(q)[2:]:
            m = n if bit == "1" else 1
            lo, hi = lo * lo * m, hi * hi * m
            cut = max(0, hi.bit_length() - t)
            lo, hi, e = lo >> cut, -(-hi >> cut), 2 * e + cut
        if hi.bit_length() <= p - e:  # n^q <= hi 2^e < 2^p
            return False
        if lo and lo.bit_length() > p - e:  # 2^p <= lo 2^e <= n^q
            return True
        t *= 2
    return True


def pow2_le(j: int, p: int, q: int) -> bool:
    """2**j <= p/q for ints p, q > 0, without constructing Fractions."""
    if j >= 0:
        return (q << j) <= p
    return q <= (p << -j)


def pow2(j: int) -> Fraction:
    """2**j as an exact Fraction, j may be negative."""
    if j >= 0:
        return Fraction(1 << j)
    return Fraction(1, 1 << (-j))


_BLOCK = 64  # indices per big-int update of `harmonic`
_HARMONIC, _ASKED = {0: (0, 1)}, [0]  # n -> (P_n, L_n) for each n asked; its keys, sorted


def harmonic(n: int) -> tuple[int, int]:
    """(P_n, L_n) with H_n = 1 + 1/2 + ... + 1/n = P_n / L_n, memoized.

    L_n = lcm(1..n), so every H_k with k <= n is an integer over L_n:
    H_k = P_k * (L_n // L_k) / L_n.  The pair is not reduced.  The memo keeps
    the asked n alone; a new n goes on from the largest asked n' < n by blocks
    [a+1, b] of at most `_BLOCK` indices, one big-int update each: over the
    block's small lcm q, H_b = H_a + sum(q // j) / q, L_b = L_a * q // gcd(L_a, q).
    """
    if n < 0:
        raise ValueError("harmonic number of a negative index")
    if n not in _HARMONIC:
        start = _ASKED[bisect.bisect(_ASKED, n) - 1]
        hnum, lcm = _HARMONIC[start]
        for a in range(start, n, _BLOCK):
            block = range(a + 1, min(a + _BLOCK, n) + 1)
            q = math.lcm(*block)
            step = q // math.gcd(lcm, q)
            lcm *= step
            hnum = hnum * step + sum(q // j for j in block) * (lcm // q)
        bisect.insort(_ASKED, n)
        _HARMONIC[n] = hnum, lcm
    return _HARMONIC[n]
