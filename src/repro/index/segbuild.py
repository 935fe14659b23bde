"""Segmented direct-to-binary index build and streaming segment merge.

The monolithic build path (``CliqueInvertedIndex.build`` →
``save_index``) materializes every posting of the whole corpus in one
process's heap before a single byte hits disk — the wall that caps the
benches at 2,500 objects.  This module splits the work the classic
LSM/Lucene way:

1. **Shard workers** score contiguous corpus shards (the same
   ``_build_shard`` body as the in-memory parallel build, same
   ``split_shards`` dispatch) and each writes its partial postings as a
   *self-contained segment file* in the index format.  A worker's peak
   RSS is bounded by its shard, not the corpus.
2. **Streaming k-way merge** (:func:`merge_segments` over open
   readers; :func:`merge_segment_files` opens files for it) emits the
   final ``index.bin`` key range by key range: per-clique entries are
   remapped to the global dense-id space and encoded by the slot
   encoder the monolithic writer uses
   (:func:`~repro.index.binfmt.encode_slot_run`), payload sections
   spill to temp files with incremental CRCs, and the file is
   assembled by the same :func:`~repro.index.binfmt.assemble_index_file`
   layout path.  At no point do all postings live in one heap.

**Byte identity.**  The merged file equals ``write_index_file`` over
the monolithic postings byte for byte because every section is a pure
function of the same data: the global object and key tables are the
sorted unions of the shards' sorted tables (slots are key-ordered, so
no build order survives into the file); per-slot entries are unique
ascending global ranks, so the k-way merge and the monolithic sort
agree; and CorS is a pure function of the key, so the first segment
holding a key stores the same value the serial first encounter did.
Tests gate this with ``cmp``.

The same merge folds **delta segments** into the main segment during
compaction, straight from the serving stack's open readers — a mapped
``index.bin`` or a built main's image, and each delta's image: a delta
holds only newer objects (ids disjoint from the main segment, appended
after it), which is precisely the "next shard" shape the merge already
handles.

One build path: ``n_workers == 1`` (or a corpus too small to shard)
scores the whole corpus inline into one segment with no process pool,
and that segment — already the final artifact, since a one-segment
merge reproduces its bytes — is renamed into place instead of merged.
The artifact does not depend on the worker count.
"""

from __future__ import annotations

import contextlib
import os
import resource
import tempfile
import time
import zlib
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.correlation import CorrelationModel
from repro.core.objects import MediaObject
from repro.core.sharding import split_shards
from repro.index.binfmt import (
    BinaryFormatError,
    BinaryIndexReader,
    SpilledSection,
    assemble_index_file,
    encode_slot_run,
    pack_postmeta_table,
    pack_string_table_bytes,
    write_index_file,
)
from repro.index.compression import decode_posting_spans
from repro.index.inverted import _build_shard

#: Name template for shard segment files inside a build directory.
SEGMENT_NAME = "segment-{:05d}.bin"


@dataclass(frozen=True)
class SegmentBuildResult:
    """One shard worker's output: the segment it wrote and the peak RSS
    (``ru_maxrss``, KiB on Linux) of the process that wrote it."""

    path: Path
    n_objects: int
    peak_rss_kb: int


@dataclass(frozen=True)
class SegmentedBuildReport:
    """What :func:`build_segmented` did, for benches and gates."""

    out_path: Path
    n_objects: int
    n_segments: int
    shard_seconds: float
    merge_seconds: float
    segment_bytes: tuple[int, ...]
    shard_peak_rss_kb: tuple[int, ...]

    @property
    def total_seconds(self) -> float:
        return self.shard_seconds + self.merge_seconds


def _write_segment(
    payload: tuple[Sequence[MediaObject], CorrelationModel, int, str],
) -> tuple[str, int, int]:
    """Worker body: score one shard and write it as a segment file
    (module-level so it pickles under every start method).  Returns
    ``(path, n_objects, peak_rss_kb)``."""
    objects, correlations, max_clique_size, path_str = payload
    postings = _build_shard((objects, correlations, max_clique_size))
    write_index_file(
        Path(path_str),
        postings,
        n_objects=len(objects),
        max_clique_size=max_clique_size,
    )
    return path_str, len(objects), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def build_segment_files(
    objects: Iterable[MediaObject],
    correlations: CorrelationModel,
    *,
    max_clique_size: int,
    n_workers: int,
    directory: str | Path,
) -> list[SegmentBuildResult]:
    """Shard ``objects`` and write one segment file per shard into
    ``directory``; parallel across a process pool when ``n_workers > 1``
    and the corpus is big enough to shard, inline otherwise (identical
    bytes either way — the shard split does not depend on the pool)."""
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    materialized = list(objects)
    base = Path(directory)
    if n_workers == 1 or len(materialized) < 2 * n_workers:
        shards = [materialized] if materialized else []
    else:
        shards = split_shards(materialized, n_workers)
    payloads = [
        (shard, correlations, max_clique_size, str(base.joinpath(SEGMENT_NAME.format(i))))
        for i, shard in enumerate(shards)
    ]
    if len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            raw = list(pool.map(_write_segment, payloads))
    else:
        raw = [_write_segment(payload) for payload in payloads]
    return [SegmentBuildResult(Path(p), n, rss) for p, n, rss in raw]


#: Entries per merge chunk.  A chunk of consecutive *global* slots maps
#: to one contiguous slot (and therefore entry/byte) range per segment
#: — key tables are sorted — so the merge streams key ranges: peak
#: memory is O(chunk entries) plus metadata-scale tables, never the
#: whole postings payload.
MERGE_CHUNK_ENTRIES = 1 << 20


def merge_segment_files(
    segment_paths: Sequence[str | Path],
    out_path: str | Path,
    *,
    verify_payload: bool = False,
) -> Path:
    """Open segment files and :func:`merge_segments` them into
    ``out_path``."""
    readers = [
        BinaryIndexReader(path, verify_payload=verify_payload)
        for path in segment_paths
    ]
    try:
        return merge_segments(readers, out_path)
    finally:
        for reader in readers:
            reader.close()


def merge_segments(readers: Sequence[BinaryIndexReader], out_path: str | Path) -> Path:
    """Stream-merge open segments — files or images — into one index
    file at ``out_path``.

    Segments must hold disjoint object-id sets (contiguous corpus
    shards, or main + delta segments); entries merge per clique in
    ascending global-id order and the output is byte-identical to a
    monolithic :func:`~repro.index.binfmt.write_index_file` over the
    union.  The pass over postings is vectorized (batch varint decode,
    then :func:`~repro.index.binfmt.encode_slot_run` per chunk) and
    chunked by key range, spilling payload sections to temp files with
    incremental CRCs.  The readers stay open.
    """
    if not readers:
        raise ValueError("merging needs at least one segment")
    out = Path(out_path)
    max_clique_size = readers[0].max_clique_size
    for reader in readers[1:]:
        if reader.max_clique_size != max_clique_size:
            raise BinaryFormatError(
                f"segment {reader.path} was built with max_clique_size="
                f"{reader.max_clique_size}, expected {max_clique_size}"
            )

    # Global dense-id space: sorted union of the per-segment id tables,
    # which must be disjoint (each object lives in exactly one segment).
    oid_arrays = [reader.object_id_table_array() for reader in readers]
    global_oids = np.unique(np.concatenate(oid_arrays))
    if len(global_oids) != sum(arr.size for arr in oid_arrays):
        raise BinaryFormatError(
            "segments are not disjoint: an object id appears in two segments"
        )
    remaps = [
        np.searchsorted(global_oids, arr.astype(global_oids.dtype))
        for arr in oid_arrays
    ]
    del oid_arrays

    # Global key space and each segment's slot -> global slot mapping.
    key_arrays = [reader.key_table_array() for reader in readers]
    global_keys = np.unique(np.concatenate(key_arrays))
    n_global = len(global_keys)
    gslot = [
        np.searchsorted(global_keys, arr.astype(global_keys.dtype))
        for arr in key_arrays
    ]
    del key_arrays

    columns = [reader.postmeta_columns() for reader in readers]
    counts_g = np.zeros(n_global, dtype=np.int64)
    for r in range(len(readers)):
        counts_g[gslot[r]] += columns[r][2]
    entry_cum = np.zeros(n_global + 1, dtype=np.int64)
    np.cumsum(counts_g, out=entry_cum[1:])
    total_entries = int(entry_cum[-1])
    # CorS is a pure function of the key: the first segment holding a
    # key stores what the serial build's first encounter computed, so
    # assign in reverse segment order and let earlier segments win.
    cors_g = np.full(n_global, np.nan, dtype=np.float64)
    for r in reversed(range(len(readers))):
        cors_g[gslot[r]] = columns[r][4]

    post_off_g = np.zeros(n_global, dtype=np.int64)
    post_len_g = np.zeros(n_global, dtype=np.int64)
    with tempfile.TemporaryDirectory(
        prefix=out.name + ".merge-", dir=out.parent
    ) as spill_dir:
        spill_base = Path(spill_dir)
        spill_paths = {
            name: spill_base.joinpath(name) for name in ("postings", "freq", "smooth")
        }
        crcs = dict.fromkeys(spill_paths, 0)
        post_bytes = 0
        with contextlib.ExitStack() as stack:
            spills = {
                name: stack.enter_context(open(path, "wb"))
                for name, path in spill_paths.items()
            }
            chunk_lo = 0
            while chunk_lo < n_global:
                chunk_hi = int(
                    np.searchsorted(
                        entry_cum,
                        entry_cum[chunk_lo] + MERGE_CHUNK_ENTRIES,
                        side="right",
                    )
                ) - 1
                chunk_hi = min(max(chunk_hi, chunk_lo + 1), n_global)

                slot_parts: list[np.ndarray] = []
                id_parts: list[np.ndarray] = []
                freq_parts: list[np.ndarray] = []
                smooth_parts: list[np.ndarray] = []
                for r, reader in enumerate(readers):
                    # Contiguous run of this segment's slots whose keys
                    # fall in the chunk's global slot range.
                    s_lo = int(np.searchsorted(gslot[r], chunk_lo, side="left"))
                    s_hi = int(np.searchsorted(gslot[r], chunk_hi, side="left"))
                    if s_lo == s_hi:
                        continue
                    post_off_r, post_len_r, counts_r, entry_off_r, _ = columns[r]
                    span = reader.postings_byte_range(
                        int(post_off_r[s_lo]),
                        int(post_off_r[s_hi - 1] + post_len_r[s_hi - 1]),
                    )
                    run_counts = counts_r[s_lo:s_hi]
                    dense = decode_posting_spans(span, run_counts)
                    id_parts.append(remaps[r][dense])
                    slot_parts.append(np.repeat(gslot[r][s_lo:s_hi], run_counts))
                    entry_lo = int(entry_off_r[s_lo])
                    entry_hi = entry_lo + int(run_counts.sum())
                    freq_all, smooth_all = reader.component_arrays()
                    freq_parts.append(freq_all[entry_lo:entry_hi])
                    smooth_parts.append(smooth_all[entry_lo:entry_hi])

                counts_chunk = counts_g[chunk_lo:chunk_hi]
                run = encode_slot_run(
                    np.concatenate(slot_parts),
                    np.concatenate(id_parts),
                    np.concatenate(freq_parts),
                    np.concatenate(smooth_parts),
                    counts_chunk,
                )
                post_off_g[chunk_lo:chunk_hi] = post_bytes + run.post_off
                post_len_g[chunk_lo:chunk_hi] = run.post_len
                for name, payload in (
                    ("postings", run.postings),
                    ("freq", run.freq),
                    ("smooth", run.smooth),
                ):
                    spills[name].write(payload)
                    crcs[name] = zlib.crc32(payload, crcs[name])
                post_bytes += len(run.postings)
                chunk_lo = chunk_hi

        sections: dict[str, bytes | SpilledSection] = {
            "objids": pack_string_table_bytes(global_oids.tolist()),
            "keys": pack_string_table_bytes(global_keys.tolist()),
            "postmeta": pack_postmeta_table(
                post_off_g, post_len_g, counts_g, entry_cum[:-1], cors_g
            ),
            "postings": SpilledSection(
                spill_paths["postings"], post_bytes, crcs["postings"]
            ),
            "freq": SpilledSection(
                spill_paths["freq"], total_entries * 8, crcs["freq"]
            ),
            "smooth": SpilledSection(
                spill_paths["smooth"], total_entries * 8, crcs["smooth"]
            ),
        }
        return assemble_index_file(
            out,
            sections,
            n_objects=sum(reader.n_objects for reader in readers),
            n_cliques=n_global,
            total_entries=total_entries,
            max_clique_size=max_clique_size,
        )


def build_segmented(
    objects: Iterable[MediaObject],
    correlations: CorrelationModel,
    *,
    max_clique_size: int,
    n_workers: int,
    out_path: str | Path,
    clock: Callable[[], float] = time.perf_counter,
) -> SegmentedBuildReport:
    """Shard → per-shard segment files → streaming merge → ``out_path``.

    The end-to-end direct-to-binary build: byte-identical to the
    monolithic ``build`` + ``save_index`` path at any worker count, with
    per-worker peak RSS bounded by the shard instead of the corpus.
    Segment files live in a temp directory next to ``out_path`` and are
    removed after the merge; a lone segment is renamed into place
    instead, so a one-shard build writes the artifact once.  ``clock`` feeds only the report's timing
    fields — the artifact bytes are a pure function of the inputs.
    """
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(
        prefix=out.name + ".segments-", dir=out.parent
    ) as segment_dir:
        shard_start = clock()
        results = build_segment_files(
            objects,
            correlations,
            max_clique_size=max_clique_size,
            n_workers=n_workers,
            directory=segment_dir,
        )
        shard_seconds = clock() - shard_start
        if not results:
            write_index_file(
                out, [], n_objects=0, max_clique_size=max_clique_size
            )
            return SegmentedBuildReport(
                out_path=out,
                n_objects=0,
                n_segments=0,
                shard_seconds=shard_seconds,
                merge_seconds=0.0,
                segment_bytes=(),
                shard_peak_rss_kb=(),
            )
        merge_start = clock()
        segment_bytes = tuple(result.path.stat().st_size for result in results)
        if len(results) == 1:
            os.replace(results[0].path, out)
        else:
            merge_segment_files([result.path for result in results], out)
        merge_seconds = clock() - merge_start
    return SegmentedBuildReport(
        out_path=out,
        n_objects=sum(result.n_objects for result in results),
        n_segments=len(results),
        shard_seconds=shard_seconds,
        merge_seconds=merge_seconds,
        segment_bytes=segment_bytes,
        shard_peak_rss_kb=tuple(result.peak_rss_kb for result in results),
    )
