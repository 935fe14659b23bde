"""Binary memory-mapped index format (v4) — the packed on-disk layout.

The clique inverted index's one on-disk format.  A text format parses
every posting on load — O(corpus) before the first query.  This format
is the classic IR answer: one file of packed contiguous sections that a
reader ``mmap``s and decodes *per clique on demand*, so opening an
index costs header parsing plus CRC sweeps — not a parse of every
posting.

Layout (all integers little-endian, sections 8-byte aligned)::

    offset  size  field
    0       8     magic  b"RPROIDX4"
    8       4     u32 version (= 4)
    12      4     u32 flags (must be 0)
    16      4     u32 max_clique_size
    20      4     u32 n_sections (= 6)
    24      8     u64 n_objects      (indexed-object count, may exceed
                                      the ids actually present)
    32      8     u64 n_cliques
    40      8     u64 total_entries  (sum of posting lengths)
    48      4     u32 header_crc    (crc32 of bytes [0, 48))
    52      192   section table: 6 records of
                    8s name | u64 offset | u64 length | u32 crc | 4 pad
    244     4     u32 table_crc     (crc32 of the section table bytes)
    248     --    section payloads, each padded to 8-byte alignment

Sections (fixed set, every one required, any order on disk):

* ``objids`` — string table of every object id, **sorted**; the dense
  integer id of an object is its rank here, so string ids round-trip.
* ``keys`` — string table of every clique key, **sorted** (UTF-8 byte
  order == code-point order), enabling binary-search lookup straight
  off the mmap with no materialized dictionary.  A key's rank is its
  slot; every per-clique section is slot-ordered.
* ``postmeta`` — per key slot: posting byte offset/length, entry
  count, entry offset into the float arrays, and CorS (never NaN; a
  reader rejects the file otherwise).
* ``postings`` — concatenated d-gap + varint streams of dense object
  ids (:func:`repro.index.compression.encode_posting_spans`).
* ``freq`` / ``smooth`` — the two build-time Eq. 7 components as
  contiguous f64 arrays, parallel to the decoded id streams.  f64 (not
  f32) because loaded rankings must stay **bit-identical** to the
  build they were written from.

String tables: ``u32 count | u32 offsets[count+1] | utf-8 blob``.

Entry order inside a posting is canonicalized to ascending object id
(string order == dense-int order), which is what d-gap encoding needs.
That is a pure permutation of the build's entry order and cannot change
any ranking: the query paths select by ``(-score, id)``
(``accumulate_top_k``, ``ImpactSortedSource``).
Posting order is canonicalized the same way (key order), so the file
is a pure function of the postings' contents.

One encoder, three destinations.  :func:`encode_slot_run` turns the
entries of a run of slots into the payload sections in whole-array
passes; the writer (:func:`write_index_file`) runs it once over every
posting, and the streaming segment merge (:mod:`repro.index.segbuild`)
once per key-range chunk.  :func:`encode_image` lays the writer's
bytes out in an anonymous mapping instead of a file: that *image* is
the in-memory segment form — a built index and every ingest delta are
read through a :class:`BinaryIndexReader` over their image exactly as
a mapped ``index.bin`` is.

Corruption handling: every failure raises :class:`BinaryFormatError`
carrying the section name and byte offset; the storage layer maps it
to its ``StorageError`` taxonomy.  Metadata sections are CRC-checked
at open; the payload sections (``postings``/``freq``/``smooth``) are
checked too unless ``verify_payload=False`` (the escape hatch for
paper-scale files where an O(file) CRC sweep is unwanted — structural
bounds checks and per-posting varint validation still apply).
"""

from __future__ import annotations

import mmap
import os
import shutil
import struct
import zlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np

from repro.index.compression import decode_postings, encode_posting_spans
from repro.index.postings import Posting

MAGIC = b"RPROIDX4"
BINARY_FORMAT_VERSION = 4

_HEADER = struct.Struct("<8sIIIIQQQ")
_CRC = struct.Struct("<I")
_OFFSET_PAIR = struct.Struct("<II")
_SECTION_RECORD = struct.Struct("<8sQQI4x")
_POSTMETA_DTYPE = np.dtype(
    [
        ("post_off", "<u8"),
        ("post_len", "<u4"),
        ("count", "<u4"),
        ("entry_off", "<u8"),
        ("cors", "<f8"),
    ]
)

#: The complete section set of a file (writers emit all of them, in
#: this order; readers require all of them).
SECTION_NAMES = ("objids", "keys", "postmeta", "postings", "freq", "smooth")

#: Sections whose CRC is always checked at open (cheap, metadata-sized).
_EAGER_SECTIONS = frozenset({"objids", "keys", "postmeta"})

_ALIGN = 8


class BinaryFormatError(ValueError):
    """Malformed binary index artifact.

    ``section`` names the section the failure was detected in (or
    ``"header"``/``"section-table"``); ``offset`` is the absolute byte
    offset of the failing region when known.  Both are baked into the
    message so the storage layer's ``StorageError`` wrapper reports
    exactly which bytes went bad.
    """

    def __init__(
        self, message: str, *, section: str | None = None, offset: int | None = None
    ) -> None:
        detail = []
        if section is not None:
            detail.append(f"section={section!r}")
        if offset is not None:
            detail.append(f"offset={offset}")
        super().__init__(f"{message} ({', '.join(detail)})" if detail else message)
        self.section = section
        self.offset = offset


def pack_postmeta_table(
    post_off: np.ndarray,
    post_len: np.ndarray,
    counts: np.ndarray,
    entry_off: np.ndarray,
    cors: np.ndarray,
) -> bytes:
    """Pack a whole ``postmeta`` section from parallel column arrays
    (the dtype is packed, little-endian, one record per slot); ``cors``
    is copied as raw f8."""
    if int(post_len.max(initial=0)) > 0xFFFFFFFF or int(counts.max(initial=0)) > 0xFFFFFFFF:
        raise BinaryFormatError("posting exceeds u32 postmeta addressing")
    table = np.empty(len(counts), dtype=_POSTMETA_DTYPE)
    table["post_off"] = post_off
    table["post_len"] = post_len
    table["count"] = counts
    table["entry_off"] = entry_off
    table["cors"] = cors
    return table.tobytes()


def pack_string_table_bytes(items: Sequence[bytes]) -> bytes:
    """Pack UTF-8 ``items`` as ``count | offsets[count+1] | blob``."""
    offsets = np.zeros(len(items) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, items), dtype=np.int64, count=len(items)),
              out=offsets[1:])
    blob_len = int(offsets[-1])
    if blob_len > 0xFFFFFFFF or len(items) > 0xFFFFFFFF:
        raise BinaryFormatError("string table exceeds u32 addressing")
    return (
        struct.pack("<I", len(items))
        + offsets.astype("<u4").tobytes()
        + b"".join(items)
    )


class EncodedRun(NamedTuple):
    """The payload of a run of consecutive slots (see
    :func:`encode_slot_run`)."""

    #: The slots' d-gap + varint id streams, back to back.
    postings: bytes
    #: Per slot: its stream's byte offset inside :attr:`postings`.
    post_off: np.ndarray
    #: Per slot: its stream's byte length.
    post_len: np.ndarray
    #: The entries' ``freq`` components as little-endian f64.
    freq: bytes
    #: The entries' ``smooth`` components as little-endian f64.
    smooth: bytes


def encode_slot_run(
    slots: np.ndarray,
    ids: np.ndarray,
    freq: np.ndarray,
    smooth: np.ndarray,
    counts: np.ndarray,
) -> EncodedRun:
    """Encode the entries of a run of consecutive slots — the one slot
    encoder the writer and the segment merge share.

    ``slots`` (any labels that increase with the slot), ``ids`` (dense
    object ids), ``freq`` and ``smooth`` are parallel per-entry arrays
    in any order; ``counts`` holds each slot's entry count, in slot
    order, zeros included.  Entries sort by ``(slot, id)`` — the
    ascending-id order a posting is stored in — and the ids of each
    slot encode as one stream (:func:`repro.index.compression.encode_posting_spans`).
    An id repeated inside one slot raises :class:`BinaryFormatError`.
    """
    perm = np.lexsort((ids, slots))
    slots, ids = slots[perm], ids[perm]
    if bool(np.any((np.diff(slots) == 0) & (np.diff(ids) == 0))):
        raise BinaryFormatError("an object id repeats inside a posting")
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    stream, nbytes = encode_posting_spans(ids, starts[:-1][counts > 0])
    ends = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(nbytes, out=ends[1:])
    post_off = ends[starts[:-1]]
    return EncodedRun(
        stream,
        post_off,
        ends[starts[1:]] - post_off,
        freq[perm].astype("<f8", copy=False).tobytes(),
        smooth[perm].astype("<f8", copy=False).tobytes(),
    )


@dataclass(frozen=True)
class SpilledSection:
    """A section payload staged in a spill file by a streaming producer.

    ``length`` and ``crc`` (``zlib.crc32`` over exactly the payload
    bytes) must have been accumulated while the file was written; the
    assembler copies the file in chunks instead of loading it.
    """

    path: Path
    length: int
    crc: int


class _Layout(NamedTuple):
    """Where every byte of an index goes: the head (header, CRCs,
    section table, padding), each section's ``(name, offset, length)``
    and the total size."""

    head: bytes
    records: list[tuple[str, int, int]]
    size: int


def _layout(
    sections: Mapping[str, "bytes | SpilledSection"],
    *,
    n_objects: int,
    n_cliques: int,
    total_entries: int,
    max_clique_size: int,
) -> _Layout:
    """The single source of truth for the byte layout (header, CRCs,
    section table, 8-byte padding)."""
    missing = set(SECTION_NAMES) - set(sections)
    if missing:
        raise BinaryFormatError(f"assembler is missing sections: {sorted(missing)}")

    table_start = _HEADER.size + _CRC.size
    payload_start = table_start + len(SECTION_NAMES) * _SECTION_RECORD.size + _CRC.size
    offset = payload_start + (-payload_start) % _ALIGN
    records: list[tuple[str, int, int]] = []
    table = bytearray()
    for name in SECTION_NAMES:
        payload = sections[name]
        if isinstance(payload, SpilledSection):
            length, crc = payload.length, payload.crc
        else:
            length, crc = len(payload), zlib.crc32(payload)
        records.append((name, offset, length))
        table.extend(_SECTION_RECORD.pack(name.encode("ascii"), offset, length, crc))
        offset += length + (-length) % _ALIGN

    header = _HEADER.pack(
        MAGIC,
        BINARY_FORMAT_VERSION,
        0,
        max_clique_size,
        len(SECTION_NAMES),
        n_objects,
        n_cliques,
        total_entries,
    )
    head = bytearray(header)
    head.extend(_CRC.pack(zlib.crc32(header)))
    head.extend(table)
    head.extend(_CRC.pack(zlib.crc32(bytes(table))))
    head.extend(b"\x00" * ((-payload_start) % _ALIGN))
    return _Layout(bytes(head), records, offset)


def _emit(
    out: BinaryIO | mmap.mmap,
    layout: _Layout,
    sections: Mapping[str, "bytes | SpilledSection"],
) -> None:
    """Write ``layout``'s bytes to ``out`` (a file or a mapping)."""
    out.write(layout.head)
    for name, _, length in layout.records:
        payload = sections[name]
        if isinstance(payload, SpilledSection):
            with open(payload.path, "rb") as spill:
                shutil.copyfileobj(spill, out, 1 << 20)
        else:
            out.write(payload)
        out.write(b"\x00" * ((-length) % _ALIGN))


def assemble_index_file(
    file_path: str | Path,
    sections: Mapping[str, "bytes | SpilledSection"],
    *,
    n_objects: int,
    n_cliques: int,
    total_entries: int,
    max_clique_size: int,
) -> Path:
    """Lay out ``sections`` as an index file.

    The writer (:func:`write_index_file`), the image
    (:func:`encode_image`) and the streaming segment merge all lay out
    through :func:`_layout`, so a merged file is byte-identical to a
    monolithic rewrite by construction.  The write is atomic (temp
    file + ``os.replace``): a serving process holding the previous
    artifact mmap'd keeps reading the old inode — rewriting in place
    would hand it torn pages.
    """
    path = Path(file_path)
    layout = _layout(
        sections,
        n_objects=n_objects,
        n_cliques=n_cliques,
        total_entries=total_entries,
        max_clique_size=max_clique_size,
    )
    tmp_path = path.with_name(path.name + ".tmp")
    with open(tmp_path, "wb") as out:
        _emit(out, layout, sections)
    os.replace(tmp_path, path)
    return path


def _encode_postings(postings: Sequence[Posting]) -> tuple[dict[str, bytes], int]:
    """The six sections of ``postings`` and their total entry count:
    one :func:`encode_slot_run` over every entry, slots in key order."""
    slotted = sorted(postings, key=lambda posting: posting.key)
    keys = [posting.key.encode("utf-8") for posting in slotted]
    if any(a == b for a, b in zip(keys, keys[1:])):
        raise BinaryFormatError("duplicate posting keys in index")
    object_ids = sorted(set().union(*slotted))
    rank = {oid: dense for dense, oid in enumerate(object_ids)}
    counts = np.fromiter(map(len, slotted), dtype=np.int64, count=len(slotted))
    total = int(counts.sum())
    run = encode_slot_run(
        np.repeat(np.arange(len(slotted), dtype=np.int64), counts),
        np.fromiter(map(rank.__getitem__, chain.from_iterable(slotted)), np.int64, total),
        np.fromiter(
            chain.from_iterable(p.component_arrays()[0] for p in slotted), np.float64, total
        ),
        np.fromiter(
            chain.from_iterable(p.component_arrays()[1] for p in slotted), np.float64, total
        ),
        counts,
    )
    cors = np.fromiter((p.cors for p in slotted), np.float64, len(slotted))
    sections = {
        "objids": pack_string_table_bytes([oid.encode("utf-8") for oid in object_ids]),
        "keys": pack_string_table_bytes(keys),
        "postmeta": pack_postmeta_table(
            run.post_off, run.post_len, counts, np.cumsum(counts) - counts, cors
        ),
        "postings": run.postings,
        "freq": run.freq,
        "smooth": run.smooth,
    }
    return sections, total


def write_index_file(
    file_path: str | Path,
    postings: Sequence[Posting],
    *,
    n_objects: int,
    max_clique_size: int,
) -> Path:
    """Serialize ``postings`` as an index file, atomically.  Their order
    does not matter: slots are written in key order."""
    sections, total_entries = _encode_postings(postings)
    return assemble_index_file(
        file_path,
        sections,
        n_objects=n_objects,
        n_cliques=len(postings),
        total_entries=total_entries,
        max_clique_size=max_clique_size,
    )


def encode_image(
    postings: Sequence[Posting], *, n_objects: int, max_clique_size: int
) -> "BinaryIndexReader":
    """The exact bytes :func:`write_index_file` writes for ``postings``,
    in an anonymous mapping, opened — the in-memory segment form."""
    sections, total_entries = _encode_postings(postings)
    layout = _layout(
        sections,
        n_objects=n_objects,
        n_cliques=len(postings),
        total_entries=total_entries,
        max_clique_size=max_clique_size,
    )
    image = mmap.mmap(-1, layout.size)
    _emit(image, layout, sections)
    return BinaryIndexReader(image, verify_payload=False)


def read_section_table(file_path: str | Path) -> dict[str, tuple[int, int]]:
    """``{section name: (absolute offset, length)}`` of an index file —
    the corruption-test hook (flip a byte *inside* a named section)."""
    with BinaryIndexReader(file_path, verify_payload=False) as reader:
        return dict(reader.sections)


class BinaryIndexReader:
    """mmap-backed random access into one index file or image.

    ``source`` is a file path, or the anonymous mapping of an image
    (:func:`encode_image`), which the reader then owns.  Opening parses
    the header and section table, validates structure (bounds,
    string-table monotonicity, postmeta consistency) and CRC-checks the
    metadata sections — plus the payload sections when
    ``verify_payload`` (the default).  Postings
    decode lazily, one clique at a time; the float arrays are zero-copy
    views into the mapping.

    A file's mapping is read-only and shared: concurrent readers
    (threads or forked worker processes) and successive serving
    generations over the same artifact all hit the same page-cache
    pages.
    """

    def __init__(
        self, source: str | Path | mmap.mmap, *, verify_payload: bool = True
    ) -> None:
        if isinstance(source, mmap.mmap):
            self._path: Path | None = None
            self._mm = source
        else:
            self._path = Path(source)
            try:
                self._file = open(self._path, "rb")
            except FileNotFoundError:
                raise BinaryFormatError(
                    f"missing binary index artifact: {self._path}"
                ) from None
            except OSError as exc:
                raise BinaryFormatError(f"unreadable binary index artifact: {exc}") from exc
            try:
                self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError) as exc:
                self._file.close()
                raise BinaryFormatError(
                    f"cannot mmap {self._path}: {exc}", section="header", offset=0
                ) from exc
        try:
            self._parse(verify_payload)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # open-time validation
    # ------------------------------------------------------------------
    def _parse(self, verify_payload: bool) -> None:
        mm = self._mm
        size = len(mm)
        if size < _HEADER.size + _CRC.size:
            raise BinaryFormatError(
                f"file too small for an index header ({size} bytes)",
                section="header",
                offset=0,
            )
        magic, version, flags, max_clique_size, n_sections, n_objects, n_cliques, total = (
            _HEADER.unpack_from(mm, 0)
        )
        if magic != MAGIC:
            raise BinaryFormatError(
                f"bad magic {magic!r} (expected {MAGIC!r})", section="header", offset=0
            )
        if version != BINARY_FORMAT_VERSION:
            raise BinaryFormatError(
                f"unsupported binary index version {version}", section="header", offset=8
            )
        if flags != 0:
            raise BinaryFormatError(
                f"unknown header flags {flags:#x}", section="header", offset=12
            )
        (header_crc,) = _CRC.unpack_from(mm, _HEADER.size)
        if zlib.crc32(mm[0:_HEADER.size]) != header_crc:
            raise BinaryFormatError("header CRC mismatch", section="header", offset=0)
        if n_sections != len(SECTION_NAMES):
            raise BinaryFormatError(
                f"expected {len(SECTION_NAMES)} sections, header says {n_sections}",
                section="header",
                offset=20,
            )

        table_start = _HEADER.size + _CRC.size
        table_size = n_sections * _SECTION_RECORD.size
        if size < table_start + table_size + _CRC.size:
            raise BinaryFormatError(
                "file truncated inside the section table",
                section="section-table",
                offset=table_start,
            )
        table_bytes = mm[table_start:table_start + table_size]
        (table_crc,) = _CRC.unpack_from(mm, table_start + table_size)
        if zlib.crc32(table_bytes) != table_crc:
            raise BinaryFormatError(
                "section table CRC mismatch", section="section-table", offset=table_start
            )

        sections: dict[str, tuple[int, int]] = {}
        crcs: dict[str, int] = {}
        for i in range(n_sections):
            raw_name, offset, length, crc = _SECTION_RECORD.unpack_from(
                table_bytes, i * _SECTION_RECORD.size
            )
            name = raw_name.rstrip(b"\x00").decode("ascii", errors="replace")
            if name not in SECTION_NAMES or name in sections:
                raise BinaryFormatError(
                    f"unexpected section {name!r}",
                    section="section-table",
                    offset=table_start + i * _SECTION_RECORD.size,
                )
            if offset + length > size:
                raise BinaryFormatError(
                    f"section extends past end of file ({offset}+{length} > {size}); "
                    "truncated artifact?",
                    section=name,
                    offset=offset,
                )
            sections[name] = (offset, length)
            crcs[name] = crc
        # n_sections == len(SECTION_NAMES) distinct known names: every
        # section is present.

        for name in sections:
            if name in _EAGER_SECTIONS or verify_payload:
                offset, length = sections[name]
                if zlib.crc32(mm[offset:offset + length]) != crcs[name]:
                    raise BinaryFormatError(
                        "section CRC mismatch (bit flip or truncation)",
                        section=name,
                        offset=offset,
                    )

        self.version = version
        self.max_clique_size = int(max_clique_size)
        self.n_objects = int(n_objects)
        self.n_cliques = int(n_cliques)
        self.total_entries = int(total)
        self.sections = sections
        self._section_crcs = crcs

        self._objid_offsets, self._objid_blob_start, self._n_objid = self._open_strings(
            "objids"
        )
        self._key_offsets, self._key_blob_start, n_keys = self._open_strings("keys")
        if n_keys != self.n_cliques:
            raise BinaryFormatError(
                f"key table holds {n_keys} keys, header promises {self.n_cliques}",
                section="keys",
                offset=sections["keys"][0],
            )
        self._postmeta = self._open_postmeta()
        self._post_base = sections["postings"][0]
        self._freq = self._open_floats("freq")
        self._smooth = self._open_floats("smooth")
        #: slot -> decoded dense-id array; repeated queries against the
        #: same mapping must not re-run the varint decode.
        self._dense_ids_cache: dict[int, np.ndarray] = {}

    def _section(self, name: str) -> tuple[int, int]:
        return self.sections[name]

    def _open_strings(self, name: str) -> tuple[np.ndarray, int, int]:
        offset, length = self._section(name)
        if length < 8:
            raise BinaryFormatError(
                "string table shorter than its own header", section=name, offset=offset
            )
        (count,) = struct.unpack_from("<I", self._mm, offset)
        offsets_start = offset + 4
        blob_start = offsets_start + 4 * (count + 1)
        if blob_start > offset + length:
            raise BinaryFormatError(
                f"string table offsets for {count} entries exceed the section",
                section=name,
                offset=offset,
            )
        offsets = np.frombuffer(self._mm, dtype="<u4", count=count + 1, offset=offsets_start)
        blob_len = (offset + length) - blob_start
        if int(offsets[0]) != 0 or int(offsets[-1]) != blob_len:
            raise BinaryFormatError(
                "string table blob does not match its offsets",
                section=name,
                offset=offsets_start,
            )
        if count and bool(np.any(np.diff(offsets.astype(np.int64)) < 0)):
            raise BinaryFormatError(
                "string table offsets are not monotone", section=name, offset=offsets_start
            )
        return offsets, blob_start, count

    def _open_postmeta(self) -> np.ndarray:
        offset, length = self._section("postmeta")
        expected = self.n_cliques * _POSTMETA_DTYPE.itemsize
        if length != expected:
            raise BinaryFormatError(
                f"postmeta is {length} bytes, expected {expected} for "
                f"{self.n_cliques} cliques",
                section="postmeta",
                offset=offset,
            )
        meta = np.frombuffer(self._mm, dtype=_POSTMETA_DTYPE, count=self.n_cliques, offset=offset)
        post_len = self._section("postings")[1]
        if self.n_cliques:
            counts = meta["count"].astype(np.int64)
            if int(counts.sum()) != self.total_entries:
                raise BinaryFormatError(
                    "posting counts do not sum to the header's total_entries",
                    section="postmeta",
                    offset=offset,
                )
            ends = meta["post_off"].astype(np.int64) + meta["post_len"].astype(np.int64)
            if bool(np.any(ends > post_len)):
                raise BinaryFormatError(
                    "a posting stream extends past the postings section",
                    section="postmeta",
                    offset=offset,
                )
            entry_ends = meta["entry_off"].astype(np.int64) + counts
            if bool(np.any(entry_ends > self.total_entries)):
                raise BinaryFormatError(
                    "a posting's component range extends past the float arrays",
                    section="postmeta",
                    offset=offset,
                )
            if bool(np.any(np.isnan(meta["cors"]))):
                raise BinaryFormatError(
                    "a posting stores a NaN CorS", section="postmeta", offset=offset
                )
        elif self.total_entries:
            raise BinaryFormatError(
                "zero cliques but nonzero total_entries", section="postmeta", offset=offset
            )
        return meta

    def _open_floats(self, name: str) -> np.ndarray:
        offset, length = self._section(name)
        if length != self.total_entries * 8:
            raise BinaryFormatError(
                f"{name} array is {length} bytes, expected {self.total_entries * 8}",
                section=name,
                offset=offset,
            )
        floats = np.frombuffer(self._mm, dtype="<f8", count=self.total_entries, offset=offset)
        floats.flags.writeable = False  # an image's mapping is writable
        return floats

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path | None:
        """The mapped file; ``None`` for an image (:func:`encode_image`)."""
        return self._path

    @property
    def object_count(self) -> int:
        """Number of distinct object ids present in postings (may be
        below ``n_objects`` when some objects produced no cliques)."""
        return self._n_objid

    def object_id_at(self, dense: int) -> str:
        """The string id of dense integer id ``dense``."""
        if not 0 <= dense < self._n_objid:
            raise BinaryFormatError(
                f"dense object id {dense} out of range [0, {self._n_objid})",
                section="objids",
            )
        return self._objid_bytes(dense).decode("utf-8")

    def _objid_bytes(self, dense: int) -> bytes:
        return self._string(self._objid_blob_start, self._n_objid, dense)

    def find_object(self, object_id: str) -> int | None:
        """Binary search the sorted object-id table; the dense id of
        ``object_id``, or ``None`` when it is absent from every posting.

        Dense rank order equals string sort order (the table is sorted,
        UTF-8 byte order == code-point order), which is what lets the
        vectorized query path tie-break on dense ints directly.
        """
        target = object_id.encode("utf-8")
        lo, hi = 0, self._n_objid
        while lo < hi:
            mid = (lo + hi) // 2
            if self._objid_bytes(mid) < target:
                lo = mid + 1
            else:
                hi = mid
        if lo < self._n_objid and self._objid_bytes(lo) == target:
            return lo
        return None

    def _key_bytes(self, slot: int) -> bytes:
        return self._string(self._key_blob_start, self.n_cliques, slot)

    def _string(self, blob_start: int, count: int, index: int) -> bytes:
        """Item ``index`` of the string table of ``count`` items whose
        blob starts at ``blob_start`` — the step of every binary search,
        so both offsets come off the mapping in one ``struct`` read (a
        third of the cost of two numpy scalar reads)."""
        start, end = _OFFSET_PAIR.unpack_from(self._mm, blob_start - 4 * (count + 1 - index))
        return self._mm[blob_start + start:blob_start + end]

    def key_at(self, slot: int) -> str:
        if not 0 <= slot < self.n_cliques:
            raise BinaryFormatError(f"slot {slot} out of range [0, {self.n_cliques})")
        return self._key_bytes(slot).decode("utf-8")

    def find_slot(self, key: str) -> int | None:
        """Binary search the sorted key table; ``None`` when absent.

        UTF-8 byte order equals code-point order, so comparing raw key
        bytes against the probe's encoding is exact.
        """
        target = key.encode("utf-8")
        lo, hi = 0, self.n_cliques
        while lo < hi:
            mid = (lo + hi) // 2
            if self._key_bytes(mid) < target:
                lo = mid + 1
            else:
                hi = mid
        if lo < self.n_cliques and self._key_bytes(lo) == target:
            return lo
        return None

    def posting_lengths(self) -> np.ndarray:
        """All posting lengths, slot-ordered (stats without decoding)."""
        return self._postmeta["count"].astype(np.int64)

    def posting_cors(self, slot: int) -> float:
        return float(self._postmeta[slot]["cors"])

    @property
    def decoded_slots(self) -> int:
        """How many slots' id streams sit decoded in the per-slot cache."""
        return len(self._dense_ids_cache)

    def posting_dense_ids(self, slot: int, *, cache: bool = True) -> np.ndarray:
        """The ascending dense object ids of slot ``slot`` as an int64
        array, decoded once and cached per slot — repeated queries
        against the same mapping never re-run the varint decode.

        The returned array is shared; callers must treat it read-only.
        ``cache=False`` decodes without populating the per-slot cache —
        a full sweep (``SegmentedCliqueIndex.iter_postings``) must not
        pin every decoded posting in memory.
        """
        cached = self._dense_ids_cache.get(slot)
        if cached is not None:
            return cached
        # scalar extraction only — holding the structured row (a view
        # into the mapping) in a local would pin the mmap open if this
        # frame ends up captured by an exception traceback.
        post_off = int(self._postmeta[slot]["post_off"])
        post_len = int(self._postmeta[slot]["post_len"])
        count = int(self._postmeta[slot]["count"])
        start = self._post_base + post_off
        data = self._mm[start:start + post_len]
        try:
            ranks = decode_postings(data)
        except ValueError as exc:
            raise BinaryFormatError(
                f"undecodable posting stream for slot {slot}: {exc}",
                section="postings",
                offset=start,
            ) from exc
        if len(ranks) != count:
            raise BinaryFormatError(
                f"posting stream for slot {slot} decodes to {len(ranks)} ids, "
                f"postmeta promises {count}",
                section="postings",
                offset=start,
            )
        if ranks and ranks[-1] >= self._n_objid:
            raise BinaryFormatError(
                f"posting stream for slot {slot} references dense id {ranks[-1]} "
                f"outside the object table ({self._n_objid} ids)",
                section="postings",
                offset=start,
            )
        arr = np.asarray(ranks, dtype=np.int64)
        if cache:
            # benign last-write-wins race under concurrent readers, same
            # discipline as the segment's posting cache.
            self._dense_ids_cache[slot] = arr
        return arr

    def posting_components(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(freq, smooth)`` f64 views of slot ``slot``,
        parallel to :meth:`posting_dense_ids` — the vectorized scorer's
        input; nothing is decoded or copied."""
        entry_off = int(self._postmeta[slot]["entry_off"])
        count = int(self._postmeta[slot]["count"])
        return (
            self._freq[entry_off:entry_off + count],
            self._smooth[entry_off:entry_off + count],
        )

    # ------------------------------------------------------------------
    # whole-section access (the streaming segment merge's surface —
    # vectorized consumers that sweep the file once, no per-slot loops)
    # ------------------------------------------------------------------
    def _bytes_table(self, offsets: np.ndarray, blob_start: int, count: int) -> np.ndarray:
        """Materialize a string-table section as a fixed-width ``S``
        array (null-padded).  Padding compares below every real byte,
        so numpy's sort/search order over the array equals the byte
        (== code-point) order the tables are stored in — valid because
        keys and object ids never contain NUL."""
        if count == 0:
            return np.empty(0, dtype="S1")
        off = offsets.astype(np.int64)
        lengths = np.diff(off)
        width = max(int(lengths.max()), 1)
        blob = np.frombuffer(
            self._mm, dtype=np.uint8, count=int(off[-1]), offset=blob_start
        )
        matrix = np.zeros((count, width), dtype=np.uint8)
        columns = np.arange(width, dtype=np.int64)
        valid = columns[None, :] < lengths[:, None]
        positions = off[:-1, None] + columns[None, :]
        matrix[valid] = blob[positions[valid]]
        return matrix.view(f"S{width}").ravel()

    def key_table_array(self) -> np.ndarray:
        """Every key as raw UTF-8 bytes, slot-ordered (== sorted)."""
        return self._bytes_table(self._key_offsets, self._key_blob_start, self.n_cliques)

    def object_id_table_array(self) -> np.ndarray:
        """Every object id as raw UTF-8 bytes, dense-ordered (== sorted)."""
        return self._bytes_table(
            self._objid_offsets, self._objid_blob_start, self._n_objid
        )

    def postmeta_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(post_off, post_len, counts, entry_off, cors)`` column
        copies of the postmeta section, slot-ordered; ints as int64,
        cors as raw f8."""
        meta = self._postmeta
        return (
            meta["post_off"].astype(np.int64),
            meta["post_len"].astype(np.int64),
            meta["count"].astype(np.int64),
            meta["entry_off"].astype(np.int64),
            meta["cors"].astype(np.float64),
        )

    def component_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(freq, smooth)`` views over the *entire* float
        sections (entry-ordered; slice with postmeta entry offsets)."""
        return self._freq, self._smooth

    def postings_byte_range(self, byte_lo: int, byte_hi: int) -> bytes:
        """Raw bytes ``[byte_lo, byte_hi)`` of the postings section
        (offsets as stored in postmeta, relative to the section)."""
        base = self._post_base
        return self._mm[base + byte_lo:base + byte_hi]

    def verify(self) -> None:
        """CRC-check every section (including payloads) — the full
        integrity sweep, for a reader opened with
        ``verify_payload=False``."""
        for name, (offset, length) in self.sections.items():
            if zlib.crc32(self._mm[offset:offset + length]) != self._section_crcs[name]:
                raise BinaryFormatError(
                    "section CRC mismatch (bit flip or truncation)",
                    section=name,
                    offset=offset,
                )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (the mapping reference is
        dropped; zero-copy views may still pin the pages)."""
        return not hasattr(self, "_mm")

    def close(self) -> None:
        """Release the mapping.  Decoded id arrays are copies, so they
        survive a close; zero-copy views from
        :meth:`posting_components` pin the
        mapping — it is then unmapped when the last view is released
        instead of here (further reader calls still fail fast)."""
        for attr in (
            "_objid_offsets",
            "_key_offsets",
            "_postmeta",
            "_freq",
            "_smooth",
        ):
            if hasattr(self, attr):
                delattr(self, attr)
        if hasattr(self, "_dense_ids_cache"):
            self._dense_ids_cache.clear()
        if hasattr(self, "_mm"):
            try:
                self._mm.close()
            except BufferError:
                # Zero-copy views are still alive; dropping our reference
                # lets the mapping unmap when the last of them is released.
                pass
            del self._mm
        if hasattr(self, "_file"):
            self._file.close()
            del self._file

    def __enter__(self) -> "BinaryIndexReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BinaryIndexReader({str(self._path)!r}, n_cliques={self.n_cliques}, "
            f"n_objects={self.n_objects})"
        )
