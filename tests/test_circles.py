from hypothesis import given, strategies as st

from ccz.circles import split_circles


def circle_texts(data):
    return split_circles(data).circles(data)


def test_split_reference_string():
    assert circle_texts(b"THEPHONEBLAH") == [b"THEP", b"HONEBLA", b"H"]


def test_split_paradox_string():
    assert circle_texts(b"ABABBA") == [b"AB", b"AB", b"BA"]


def test_split_empty():
    assert circle_texts(b"") == []
    assert split_circles(b"").circle_count == 0


def test_split_repeated_byte():
    assert circle_texts(b"AAAA") == [b"A", b"A", b"A", b"A"]


@given(st.binary(max_size=2048))
def test_circles_tile_input(data):
    assert b"".join(circle_texts(data)) == data


@given(st.binary(max_size=2048))
def test_circle_bytes_unique(data):
    for circle in circle_texts(data):
        assert len(set(circle)) == len(circle)
        assert 1 <= len(circle) <= 256


@given(st.binary(min_size=1, max_size=2048))
def test_breaks_are_forced(data):
    circles = circle_texts(data)
    for current, following in zip(circles, circles[1:]):
        assert following[0] in current


@given(st.binary(max_size=2048))
def test_circle_count_bounds(data):
    n = len(data)
    count = split_circles(data).circle_count
    assert -(-n // 256) <= count <= n
