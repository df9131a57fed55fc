"""Segmentation of a byte stream into circles.

A circle is a maximal substring in which every byte value occurs at most
once.  Scanning left to right, a byte that already occurs in the circle
being accumulated forces a break: the accumulated bytes become the next
circle and the repeated byte opens a new one.  Circles are numbered from 1
(the innermost); a byte's ordinal position within its circle is its theta
value, which is never stored because only the relative order matters.

The segmentation is the coordinate system of the codec: a run is one byte
value recurring in consecutive circles.  Neither the encoder nor the
decoder calls :func:`split_circles`; each applies the same break rule as
it goes, the encoder to the input it scans and the decoder to the bytes it
emits.  :func:`split_circles` serves ``ccz inspect``, the benchmark and
the tests.
"""

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple


class CirclePosition(NamedTuple):
    r: int      # 1-based circle index
    theta: int  # 0-based position within the circle


@dataclass(frozen=True)
class CircleSegmentation:
    """Ordered (start_offset, length) spans, one per circle, tiling the input."""

    boundaries: tuple[tuple[int, int], ...]

    @property
    def circle_count(self) -> int:
        return len(self.boundaries)

    @property
    def total_length(self) -> int:
        if not self.boundaries:
            return 0
        start, length = self.boundaries[-1]
        return start + length

    def span(self, r: int) -> tuple[int, int]:
        """(start_offset, length) of circle ``r`` (1-based)."""
        return self.boundaries[r - 1]

    def circles(self, data: bytes) -> list[bytes]:
        """The circle contents of the stream this segmentation was built from."""
        return [data[start:start + length] for start, length in self.boundaries]


def split_circles(data: bytes) -> CircleSegmentation:
    """Split ``data`` into circles.

    A break happens exactly when the next byte already occurs in the circle
    being accumulated, so every circle except the last is maximal and the
    result is unique.  Each circle holds at most 256 bytes (all distinct).
    """
    boundaries: list[tuple[int, int]] = []
    start = 0
    seen: set[int] = set()
    for offset, value in enumerate(data):
        if value in seen:
            boundaries.append((start, offset - start))
            start = offset
            seen = {value}
        else:
            seen.add(value)
    if data:
        boundaries.append((start, len(data) - start))
    return CircleSegmentation(tuple(boundaries))


def position_of(seg: CircleSegmentation, offset: int) -> CirclePosition:
    """Locate a byte offset as a (circle, theta) coordinate pair."""
    if offset < 0 or offset >= seg.total_length:
        raise IndexError(f"offset {offset} outside segmented input of length {seg.total_length}")
    r = bisect_right(seg.boundaries, offset, key=itemgetter(0))
    return CirclePosition(r, offset - seg.boundaries[r - 1][0])
