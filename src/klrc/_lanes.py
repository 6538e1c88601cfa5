"""Packed lanes: many small integers, each one digit of one int.

A lane int holds ``size`` digits of w bits, digit i in bits w*i to
w*i + w - 1, and the top bit of each digit is its guard bit, so that one
big-int operation acts on every digit at once (SWAR, "SIMD within a
register": Lamport, "Multiple byte processing with full-word instructions",
CACM 1975; Warren, *Hacker's Delight*, ch. 2).  The class pass
(``maxweights._class_packed``) holds each coordinate column in one lane int
at w = 64, one digit per class member; ``quiver.build_quiver`` reads its
vertex bitsets off those columns, and packs each member's x into a lane int
of its own width.  This module is the only code that knows the format.
Every operation is exact while every digit it reads or writes lies in
0..2^(w-1) - 1, clear of its guard bit.  With ONES a 1 in every digit,
G = ONES << (w - 1) the guard bits and LOW = G - ONES (``masks``):

* A + B, A - B and c*A are the lane ints of the digitwise results, which
  stay clear of the guard bits, so no digit carries or borrows.
* ``at_least``: digit i of (A | G) - B is a_i + 2^(w-1) - b_i, in
  1..2^w - 1, so no digit borrows, and its guard bit is set exactly when
  a_i >= b_i.  G ^ at_least flags a_i < b_i.
* ``lane_min``: with F the flags of a_i >= b_i, F - (F >> (w-1)) is LOW's
  digit where a flag is set (each flag lends to its own digit alone), so
  A ^ ((A ^ B) & that) takes b_i there and keeps a_i elsewhere.
* ``halve``: (V >> 1) & LOW is floor(v_i / 2) in every digit, as LOW clears
  the bit each digit takes from the one above.
* Signed digits are held as BIAS + v, BIAS = 2^61.  ``check_depth`` refuses
  a bound D on |v| of 2^57 or more before any lane is built, so a biased
  digit lies in 2^61 +- 2^57, and twice it stays clear of the guard bit.
  Halving BIAS + v gives BIAS/2 + floor(v/2), so ``halve`` adds BIAS/2 back
  in every digit.  With the biases cancelled, any v - 2v' lies within
  3D < 2^59 of 0.
* ``in_range``: an int is the sum of its true digits t_i * 2^(w*i), which
  are unique to it while they lie in (-2^(w-1), 2^(w-1)).  So every t_i is
  in 0..2^bits - 1 exactly when the int is >= 0 and no digit has a bit at
  or above ``bits``.
* ``bitset``: the flags shifted to bit 0 leave one byte 0 or 1 at the low
  byte of each digit; those bytes, last digit first, read as a binary
  numeral, set bit i for a flagged digit i.

At w = 64 ``pack`` lays out the bytes of an int64 array in the machine's
byte order, which puts entry i in digit size - 1 - i on a big-endian
machine; only ``unpack`` and ``bitset`` read the digits in place, and each
reads them in entry order.
"""

from __future__ import annotations

import sys
from array import array
from itertools import count, repeat
from operator import lshift
from typing import Iterable

from .cartan import GuardError

BIAS = 1 << 61
DEPTH_CAP = 1 << 57
# bytes of 0/1 flags to the ASCII digits "0"/"1", and the byte of a 64-bit
# digit that holds its bit 0
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_LOW_BYTE = 0 if sys.byteorder == "little" else 7


def check_depth(depth: int) -> None:
    """GuardError unless ``depth``, rank times level, is below ``DEPTH_CAP``."""
    if depth >= DEPTH_CAP:
        raise GuardError(f"rank times level is {depth}, cap is {DEPTH_CAP - 1}")


def masks(size: int, width: int = 64) -> tuple[int, int, int]:
    """``(ONES, G, LOW)`` for ``size`` digits of ``width`` bits."""
    ones = ((1 << width * size) - 1) // ((1 << width) - 1)
    guard = ones << width - 1
    return ones, guard, guard - ones


def pack(values: Iterable[int], width: int = 64) -> int:
    """The lane int of ``values``, each in 0..2^(width-1) - 1."""
    if width != 64:
        return sum(map(lshift, values, count(0, width)))
    return int.from_bytes(array("q", values).tobytes(), sys.byteorder)


def unpack(packed: int, size: int) -> array:
    """``pack`` undone at width 64, as an int64 array."""
    return array("q", packed.to_bytes(8 * size, sys.byteorder))


def pack_rows(columns: Iterable[Iterable[int]], width: int) -> list[int]:
    """``pack(row, width)`` of each row of the columns, one per member."""
    shifted = [map(lshift, column, repeat(at)) for column, at in zip(columns, count(0, width))]
    return list(map(sum, zip(*shifted)))


def at_least(a: int, b: int, guard: int) -> int:
    """The guard bits of the digits where a_i >= b_i."""
    return ((a | guard) - b) & guard


def lane_min(a: int, b: int, guard: int, width: int = 64) -> int:
    """The digitwise min of ``a`` and ``b``."""
    flags = at_least(a, b, guard)
    return a ^ ((a ^ b) & (flags - (flags >> width - 1)))


def halve(v: int, low: int, bias: int) -> int:
    """floor(v_i / 2) in every digit, ``bias`` the biases (or 0)."""
    return ((v >> 1) & low) + (bias >> 1)


def in_range(v: int, bits: int, ones: int, width: int = 64) -> bool:
    """Whether every true digit of ``v`` lies in 0..2^bits - 1."""
    return v >= 0 and not v & ones * ((1 << width) - (1 << bits))


def bitset(flags: int, size: int) -> int:
    """Bit i set where the 64-bit ``flags`` has entry i's guard bit set."""
    low_bytes = (flags >> 63).to_bytes(8 * size, sys.byteorder)[_LOW_BYTE::8]
    return int(low_bytes[::-1].translate(_DIGITS), 2)
