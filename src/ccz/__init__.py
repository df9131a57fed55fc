"""Lossless compression through concentric-circle run detection.

The input is split into circles (maximal substrings of distinct bytes) and
a run is one byte value recurring in consecutive circles at order-
compatible positions.  Runs need not be contiguous in the stream, which
generalizes run-length encoding to positional redundancy.  ``compress``
and ``decompress`` wrap the full pipeline; the submodules expose the
individual stages.
"""

from .circles import CircleSegmentation, split_circles
from .container import (
    ArchiveFormatError,
    CompressedEntry,
    CorruptArchiveError,
    EncodedParts,
    RunNode,
    _write_archive,
    pack_flags,
    parse,
    serialize,
    unpack_flags,
)
from .decoder import decode, undo_delta
from .encoder import (
    EncoderState,
    _encode_pipeline,
    delta_encode_entries,
    encode,
    remove_redundant_entries,
    trace_encode,
)
from .rle import rle_decode, rle_encode

__version__ = "0.1.0"


def compress(data: bytes) -> bytes:
    """Compress ``data`` into a self-contained archive.

    Equal to ``serialize(encode(data))``, without an object per entry: the
    entry columns go straight from the encoder into the archive.
    """
    flags, literals, columns = _encode_pipeline(data)[:3]
    return _write_archive(flags, literals, *columns)


decompress = decode


__all__ = [
    "ArchiveFormatError",
    "CircleSegmentation",
    "CompressedEntry",
    "CorruptArchiveError",
    "EncodedParts",
    "EncoderState",
    "RunNode",
    "compress",
    "decode",
    "decompress",
    "delta_encode_entries",
    "encode",
    "pack_flags",
    "parse",
    "remove_redundant_entries",
    "rle_decode",
    "rle_encode",
    "serialize",
    "split_circles",
    "trace_encode",
    "undo_delta",
    "unpack_flags",
]
