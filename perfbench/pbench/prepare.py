"""Untimed input preparation, reproducible from the seed.

One recommendation corpus of ``N_OBJECTS`` objects is generated from the
seed.  Its first ``N_INDEXED`` objects are saved with a built v3
``index.bin``; the rest, in corpus order, are the ingest stream, stored
as the canonical ``{"id", "t", "features"}`` records ``POST /ingest``
takes.  The result is cached under ``.perfbench/cache/`` with a key that
includes a digest of the program and benchmark sources, so two source
trees never share an artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

N_OBJECTS = 2200
N_INDEXED = 2000
N_TRACKED_USERS = 25

#: Everything the benchmark reads and writes lives under this directory
#: of the checkout.
STATE_DIR = ".perfbench"

_SOURCE_GLOBS = ("src/**/*.py", "perfbench/**/*.py", "pyproject.toml", "setup.py")


def source_digest(root: Path) -> str:
    """SHA-256 over the program and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    files = sorted({p for pattern in _SOURCE_GLOBS for p in root.glob(pattern) if p.is_file()})
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@dataclass(frozen=True)
class Prepared:
    corpus_dir: Path  # N_INDEXED objects + index.bin
    stream_path: Path  # JSONL ingest records
    key: str
    cache_state: str  # "hit" or "built"
    prepare_s: float


def stream_records(prepared: Prepared) -> list[dict]:
    with prepared.stream_path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def prepare(root: Path, seed: int, with_index: bool = True) -> Prepared:
    """Return the prepared input for ``seed``, building what is missing.

    The corpus and stream are one stage and ``index.bin`` a second, so
    a workload that builds its own index never pays for the prepared
    one.
    """
    key = f"{source_digest(root)[:20]}-n{N_OBJECTS}-i{N_INDEXED}-s{seed}"
    cache = root / STATE_DIR / "cache" / key
    started = time.perf_counter()
    state = "hit"
    if not (cache / "manifest.json").is_file():
        state = "built"
        _build_corpus(cache, seed, key)
    if with_index and not (cache / "corpus" / "index.bin").is_file():
        state = "built"
        _build_index(cache / "corpus")
    return Prepared(
        corpus_dir=cache / "corpus",
        stream_path=cache / "stream.jsonl",
        key=key,
        cache_state=state,
        prepare_s=time.perf_counter() - started,
    )


def _build_corpus(cache: Path, seed: int, key: str) -> None:
    from repro.social.generator import GeneratorConfig, SyntheticFlickr
    from repro.storage.store import save_corpus

    staging = cache.with_name(cache.name + f".tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    config = GeneratorConfig(n_objects=N_OBJECTS, n_tracked_users=N_TRACKED_USERS)
    full = SyntheticFlickr(config, seed=seed).generate_recommendation_corpus()
    # The canonical record shape comes from the store's own writer.
    save_corpus(full, staging / "full")
    with (staging / "full" / "objects.jsonl").open() as fh:
        stream = [line for i, line in enumerate(fh) if i >= N_INDEXED]
    (staging / "stream.jsonl").write_text("".join(stream))
    shutil.rmtree(staging / "full")
    save_corpus(full.subset(N_INDEXED), staging / "corpus")
    manifest = {"key": key, "seed": seed, "objects": N_INDEXED, "stream": len(stream)}
    (staging / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    cache.parent.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(cache, ignore_errors=True)
    os.replace(staging, cache)


def _build_index(corpus_dir: Path) -> None:
    """``index.bin`` as ``repro index build`` writes it; the two-worker
    build is bit-identical to the serial one and halves the wait."""
    from repro.core.retrieval import RetrievalEngine
    from repro.index.inverted import CliqueInvertedIndex
    from repro.storage.store import load_corpus, save_index

    corpus = load_corpus(corpus_dir)
    engine = RetrievalEngine(corpus, build_index=False)
    index = CliqueInvertedIndex(
        engine.correlations, max_clique_size=engine.params.max_clique_size
    ).build(corpus, n_workers=2)
    staging = corpus_dir / f"index.tmp{os.getpid()}.bin"
    save_index(index, staging)
    os.replace(staging, corpus_dir / "index.bin")
