"""Index substrate: clique inverted lists and Fagin's Threshold
Algorithm (Section 3.5 / Algorithm 1's acceleration structures)."""

from __future__ import annotations

from repro.index.binfmt import (
    BINARY_FORMAT_VERSION,
    BinaryFormatError,
    BinaryIndexReader,
    read_section_table,
    write_index_file,
)
from repro.index.compression import (
    compression_ratio,
    decode_postings,
    decode_varint,
    encode_postings,
    encode_varint,
)
from repro.index.inverted import CliqueInvertedIndex
from repro.index.postings import Posting
from repro.index.segmented import SegmentedCliqueIndex
from repro.index.threshold import (
    AccessStats,
    ImpactSortedSource,
    threshold_algorithm,
)

__all__ = [
    "AccessStats",
    "BINARY_FORMAT_VERSION",
    "BinaryFormatError",
    "BinaryIndexReader",
    "CliqueInvertedIndex",
    "ImpactSortedSource",
    "Posting",
    "SegmentedCliqueIndex",
    "compression_ratio",
    "decode_postings",
    "decode_varint",
    "encode_postings",
    "encode_varint",
    "read_section_table",
    "threshold_algorithm",
    "write_index_file",
]
