"""`repro.nand.image.same_filled`: a page that is one byte repeated is
one shared image; every other page comes back as itself."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.nand.image import filled, same_filled

PAGE_SIZES = [1, 2, 64, 512, 4096]


@st.composite
def pages(draw):
    """Fills of a page size, fills with one byte changed (anywhere,
    including strictly inside, so that first == last is no proof), and
    arbitrary bytes; as ``bytes``, ``bytearray`` or ``memoryview``."""
    kind = draw(st.sampled_from(["fill", "almost", "any"]))
    if kind == "any":
        data = draw(st.binary(max_size=600))
    else:
        size = draw(st.sampled_from(PAGE_SIZES))
        value = draw(st.integers(0, 255))
        data = bytearray([value]) * size
        if kind == "almost" and size > 1:
            data[draw(st.integers(0, size - 1))] = (
                value + draw(st.integers(1, 255))
            ) % 256
        data = bytes(data)
    return draw(st.sampled_from([bytes, bytearray, memoryview]))(data)


def is_one_fill(data) -> bool:
    return len(data) > 0 and data == bytes(data[:1]) * len(data)


def check(fn) -> None:
    """``fn`` behaves as ``same_filled`` must, over :func:`pages`."""

    @settings(max_examples=400, deadline=None, database=None)
    @given(data=pages())
    def run(data):
        out = fn(data)
        assert out == data
        if is_one_fill(data):
            assert type(out) is bytes
            assert out is filled(data[0], len(data))
        else:
            assert out is data

    run()


def test_same_filled_is_the_identity_on_contents_and_shares_fills():
    check(same_filled)


@given(size=st.sampled_from(PAGE_SIZES), value=st.integers(0, 255))
def test_equal_fills_are_one_object(size, value):
    a = same_filled(bytes([value]) * size)
    b = same_filled(bytearray([value]) * size)
    assert a is b is filled(value, size)


def test_every_fill_of_a_page_size_is_held_at_once():
    images = [same_filled(bytes([v]) * 4096) for v in range(256)]
    assert len({id(image) for image in images}) == 256
    assert all(
        same_filled(bytes([v]) * 4096) is images[v] for v in range(256)
    )


@pytest.mark.parametrize("data", [b"", b"ab", b"a" + b"\x00" * 62 + b"a"])
def test_other_input_comes_back_as_itself(data):
    assert same_filled(data) is data


def trusting_first_and_last(data):
    """Mutant: takes equal first and last bytes as proof of a fill and
    skips the full compare."""
    if not data or data[0] != data[-1]:
        return data
    return filled(data[0], len(data))


def test_mutant_trusting_first_and_last_byte_is_caught():
    with pytest.raises(AssertionError):
        check(trusting_first_and_last)
