"""Each lane operation of ``klrc._lanes`` against a per-digit Python model.

The widths are those the callers use: 64 for the class columns and the
vertex bitsets, and the packed x's width, 3 and up.  The digits are drawn
near 0 and next to each guard bit, where a borrow or a carry would show."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from klrc import _lanes as lanes
from klrc.cartan import GuardError

PROPERTY = settings(max_examples=200, deadline=None, database=None)
WIDTHS = st.one_of(st.just(64), st.integers(3, 16))


def in_entry_order(digits, width):
    """Digits listed from digit 0 up, in the order of the entries ``pack``
    laid out: at width 64 a big-endian machine puts entry i in digit
    size - 1 - i."""
    return digits[::-1] if width == 64 and sys.byteorder == "big" else digits


def digits(v, width, size):
    """The ``size`` base-2^width digits of ``v``, entry by entry."""
    return in_entry_order([v >> width * i & (1 << width) - 1 for i in range(size)], width)


def clear(width):
    """A digit clear of its guard bit, often next to 0 or to the guard bit."""
    guard = 1 << width - 1
    return st.one_of(st.sampled_from([0, 1, 2, guard - 2, guard - 1]), st.integers(0, guard - 1))


@st.composite
def lanes_of(draw, count=1):
    """A width, and ``count`` columns of one length, every digit clear."""
    width = draw(WIDTHS)
    size = draw(st.integers(1, 12))
    return (width, *[draw(st.lists(clear(width), min_size=size, max_size=size))
                     for _ in range(count)])


@PROPERTY
@given(WIDTHS, st.integers(1, 40))
def test_masks(width, size):
    ones, guard, low = lanes.masks(size, width)
    assert ones < 1 << width * size
    assert digits(ones, width, size) == [1] * size
    assert digits(guard, width, size) == [1 << width - 1] * size
    assert digits(low, width, size) == [(1 << width - 1) - 1] * size


@PROPERTY
@given(lanes_of())
def test_pack_and_unpack(case):
    width, column = case
    packed = lanes.pack(column, width)
    assert digits(packed, width, len(column)) == column
    assert packed < 1 << width * len(column)
    if width == 64:
        assert lanes.unpack(packed, len(column)).tolist() == column
        assert packed == lanes.pack(iter(column))  # an iterator packs as its list


@PROPERTY
@given(lanes_of(3))
def test_pack_rows(case):
    width, *columns = case
    assert lanes.pack_rows(columns, width) == [lanes.pack(row, width) for row in zip(*columns)]


@PROPERTY
@given(lanes_of(2))
def test_at_least(case):
    width, a, b = case
    guard = lanes.masks(len(a), width)[1]
    flags = lanes.at_least(lanes.pack(a, width), lanes.pack(b, width), guard)
    assert digits(flags, width, len(a)) == [(x >= y) << width - 1 for x, y in zip(a, b)]


@PROPERTY
@given(lanes_of(2))
def test_lane_min(case):
    width, a, b = case
    guard = lanes.masks(len(a), width)[1]
    least = lanes.lane_min(lanes.pack(a, width), lanes.pack(b, width), guard, width)
    assert digits(least, width, len(a)) == list(map(min, a, b))


@PROPERTY
@given(lanes_of())
def test_halve(case):
    width, column = case
    low = lanes.masks(len(column), width)[2]
    assert digits(lanes.halve(lanes.pack(column, width), low, 0), width, len(column)) == \
        [v // 2 for v in column]


DEPTH = lanes.DEPTH_CAP - 1


@PROPERTY
@given(st.lists(st.one_of(st.sampled_from([-DEPTH, -DEPTH + 1, -1, 0, 1, DEPTH - 1, DEPTH]),
                          st.integers(-DEPTH, DEPTH)), min_size=1, max_size=12))
def test_halve_a_biased_column(signed):
    """Digits BIAS + v with |v| below the depth cap halve to BIAS + floor(v/2)."""
    ones, _, low = lanes.masks(len(signed))
    biased = lanes.pack([lanes.BIAS + v for v in signed])
    assert lanes.unpack(lanes.halve(biased, low, lanes.BIAS * ones), len(signed)).tolist() == \
        [lanes.BIAS + v // 2 for v in signed]


@st.composite
def signed_lanes(draw):
    """A width, a bit count below it, and true digits t_i in
    (-2^(w-1), 2^(w-1)), often at 0, at either end, or next to 2^bits."""
    width = draw(WIDTHS)
    bits = draw(st.integers(1, width - 1))
    top = (1 << width - 1) - 1
    edges = [-top, -1, 0, 1, (1 << bits) - 1, min(1 << bits, top), top]
    signed = draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(-top, top)),
                           min_size=1, max_size=12))
    return width, bits, signed


@PROPERTY
@given(signed_lanes())
def test_in_range(case):
    """The int of the true digits, with their carries and borrows, is in
    range exactly when every true digit is in 0..2^bits - 1."""
    width, bits, signed = case
    v = sum(t << width * i for i, t in enumerate(signed))  # digit i is t_i
    ones = lanes.masks(len(signed), width)[0]
    assert lanes.in_range(v, bits, ones, width) == all(0 <= t < 1 << bits for t in signed)


@PROPERTY
@given(st.lists(st.booleans(), min_size=1, max_size=80))
def test_bitset(flagged):
    flags = sum(f << 64 * i + 63 for i, f in enumerate(in_entry_order(flagged, 64)))
    assert lanes.bitset(flags, len(flagged)) == sum(f << i for i, f in enumerate(flagged))


@pytest.mark.parametrize("depth", [0, 1, lanes.DEPTH_CAP - 1])
def test_depth_below_the_cap_passes(depth):
    lanes.check_depth(depth)


@pytest.mark.parametrize("depth", [lanes.DEPTH_CAP, lanes.DEPTH_CAP + 1, 10 ** 40])
def test_depth_at_the_cap_is_refused(depth):
    with pytest.raises(GuardError, match=f"rank times level is {depth}, "
                                         f"cap is {lanes.DEPTH_CAP - 1}"):
        lanes.check_depth(depth)
