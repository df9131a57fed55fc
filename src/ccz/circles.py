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
the tests.  Its result's ``boundaries`` gives each circle's (start,
length): circle r is ``boundaries[r - 1]``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class CircleSegmentation:
    """Ordered (start_offset, length) spans, one per circle, tiling the input."""

    boundaries: tuple[tuple[int, int], ...]

    @property
    def circle_count(self) -> int:
        return len(self.boundaries)

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
    where = [-1] * 256  # the latest offset of each byte value
    for offset, value in enumerate(data):
        if where[value] >= start:
            boundaries.append((start, offset - start))
            start = offset
        where[value] = offset
    if data:
        boundaries.append((start, len(data) - start))
    return CircleSegmentation(tuple(boundaries))
