"""Segmented direct-to-binary build: byte identity and merge contract.

The whole value of :mod:`repro.index.segbuild` is that its artifact is
*indistinguishable* from the monolithic ``build`` + ``save_index``
path — same bytes, any worker count.  These tests gate that with
``filecmp`` at several shard counts, through unicode ids/keys, and
across the delta-fold shape compaction uses (main + tail segments).  Failure modes (overlapping
object ids, empty input) must raise, never corrupt.
"""

from __future__ import annotations

import filecmp
from collections import Counter

import pytest

from repro.core.objects import Feature, MediaObject
from repro.core.retrieval import correlation_model_for_corpus
from repro.index.binfmt import BinaryIndexReader, write_index_file
from repro.index import segbuild
from repro.index.inverted import CliqueInvertedIndex
from repro.index.segbuild import (
    SegmentBuildResult,
    build_segment_files,
    build_segmented,
    merge_segment_files,
)
from repro.social.corpus import Corpus
from repro.social.users import SocialGraph

MAX_CLIQUE = 2


def _corpus(n: int, prefix: str = "o", shared_every: int = 1) -> Corpus:
    """Synthetic corpus with overlapping text/user features so shards
    share cliques (the merge's interesting case)."""
    objects = []
    for i in range(n):
        bag: Counter[Feature] = Counter(
            {
                Feature.text(f"tag{i % 7}"): 1 + i % 3,
                Feature.user(f"u{i % 5}"): 1,
            }
        )
        if i % shared_every == 0:
            bag[Feature.text("commön")] += 1  # unicode key on purpose
        objects.append(
            MediaObject(object_id=f"{prefix}{i:05d}", features=bag, timestamp=i % 6)
        )
    return Corpus(
        objects=objects,
        social=SocialGraph({f"u{i}": [] for i in range(5)}),
        n_months=6,
    )


@pytest.fixture(scope="module")
def corpus():
    return _corpus(90)


@pytest.fixture(scope="module")
def model(corpus):
    return correlation_model_for_corpus(corpus)


def _monolithic(corpus, model, path):
    index = CliqueInvertedIndex(model, max_clique_size=MAX_CLIQUE).build(corpus)
    return write_index_file(
        path,
        list(index.iter_postings()),
        n_objects=index.n_objects,
        max_clique_size=MAX_CLIQUE,
    )


def _segment(objects, model, directory) -> SegmentBuildResult:
    """One segment file over ``objects``, written inline into its own
    ``directory``."""
    directory.mkdir()
    (result,) = build_segment_files(
        objects, model, max_clique_size=MAX_CLIQUE, n_workers=1, directory=directory
    )
    return result


# ----------------------------------------------------------------------
# byte identity across shard counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_segmented_build_matches_monolithic_bytes(corpus, model, tmp_path, n_workers):
    reference = _monolithic(corpus, model, tmp_path / "mono.bin")
    report = build_segmented(
        list(corpus),
        model,
        max_clique_size=MAX_CLIQUE,
        n_workers=n_workers,
        out_path=tmp_path / f"seg{n_workers}.bin",
    )
    assert filecmp.cmp(report.out_path, reference, shallow=False)
    assert report.n_objects == len(list(corpus))
    assert len(report.shard_peak_rss_kb) == report.n_segments


def test_segment_files_then_merge_matches_monolithic(corpus, model, tmp_path):
    reference = _monolithic(corpus, model, tmp_path / "mono.bin")
    results = build_segment_files(
        list(corpus),
        model,
        max_clique_size=MAX_CLIQUE,
        n_workers=3,
        directory=tmp_path,
    )
    assert len(results) == 3
    merged = merge_segment_files(
        [r.path for r in results], tmp_path / "merged.bin", verify_payload=True
    )
    assert filecmp.cmp(merged, reference, shallow=False)


def test_merge_single_segment_matches_monolithic(corpus, model, tmp_path):
    """One segment over the whole corpus merges to its own bytes, which
    equal the monolithic write — why a one-shard build may rename its
    segment into place instead of merging it."""
    reference = _monolithic(corpus, model, tmp_path / "mono.bin")
    result = _segment(list(corpus), model, tmp_path / "only")
    assert filecmp.cmp(result.path, reference, shallow=False)
    merged = merge_segment_files([result.path], tmp_path / "merged.bin")
    assert filecmp.cmp(merged, reference, shallow=False)


def test_one_shard_build_renames_its_segment(corpus, model, tmp_path, monkeypatch):
    """A one-worker build writes one segment and moves it into place:
    no merge runs and no segment or temp directory is left behind."""

    def no_merge(*args, **kwargs):
        raise AssertionError("a one-segment build must not merge")

    monkeypatch.setattr(segbuild, "merge_segment_files", no_merge)
    out = tmp_path / "out" / "index.bin"
    report = build_segmented(
        list(corpus), model, max_clique_size=MAX_CLIQUE, n_workers=1, out_path=out
    )
    assert report.n_segments == 1
    assert report.segment_bytes == (out.stat().st_size,)
    assert [p.name for p in out.parent.iterdir()] == ["index.bin"]


# ----------------------------------------------------------------------
# delta-fold shape (compaction)
# ----------------------------------------------------------------------
def test_main_plus_delta_merge_matches_full_rebuild(tmp_path):
    """Folding tail segments into main — compaction's merge — equals a
    from-scratch monolithic write over the union, under one frozen
    model."""
    full = _corpus(60)
    objects = list(full)
    model = correlation_model_for_corpus(full)
    reference = _monolithic(full, model, tmp_path / "mono.bin")
    main = _segment(objects[:40], model, tmp_path / "main")
    d1 = _segment(objects[40:52], model, tmp_path / "d1")
    d2 = _segment(objects[52:], model, tmp_path / "d2")
    merged = merge_segment_files(
        [main.path, d1.path, d2.path], tmp_path / "folded.bin"
    )
    assert filecmp.cmp(merged, reference, shallow=False)


# ----------------------------------------------------------------------
# failure modes
# ----------------------------------------------------------------------
def test_merge_rejects_overlapping_object_ids(corpus, model, tmp_path):
    objects = list(corpus)
    a = _segment(objects[:50], model, tmp_path / "a")
    b = _segment(objects[45:], model, tmp_path / "b")
    with pytest.raises(ValueError, match="disjoint"):
        merge_segment_files([a.path, b.path], tmp_path / "bad.bin")


def test_merge_requires_segments(tmp_path):
    with pytest.raises(ValueError, match="at least one segment"):
        merge_segment_files([], tmp_path / "out.bin")


def test_empty_build_writes_empty_artifact(model, tmp_path):
    report = build_segmented(
        [],
        model,
        max_clique_size=MAX_CLIQUE,
        n_workers=2,
        out_path=tmp_path / "empty.bin",
    )
    assert report.n_objects == 0
    with BinaryIndexReader(report.out_path) as reader:
        assert reader.n_objects == 0
