"""On-disk persistence for corpora and model parameters.

A corpus saves to a directory of simple, inspectable artifacts:

* ``meta.json`` — format version, counts, month span;
* ``objects.jsonl`` — one JSON object per media object (id, timestamp,
  feature bag in canonical ``type:name -> count`` form);
* ``favorites.jsonl`` — one favorite event per line;
* ``social.json`` — user -> group memberships;
* ``taxonomy.json`` — node -> parent (IS-A hierarchy);
* ``topics.json`` — ground-truth dominant topics per object;
* ``codebook.npy`` + ``codebook.json`` — visual-word centroids and the
  similarity scale.

JSON-lines keeps object loading streamable and diffs readable; the
centroid matrix is the only binary artifact.  ``MRFParameters`` get a
single-file JSON round trip so trained parameters can ship with an
index.

The clique inverted index persists as one binary artifact
(``index.bin``; see :mod:`repro.index.binfmt`): packed contiguous
sections behind a CRC-checked header, recognised by its magic bytes
(never its file name) and loaded O(metadata) via ``mmap`` as a
main-only :class:`repro.index.segmented.SegmentedCliqueIndex` that
decodes one clique per first touch.  It stores each posting's CorS and build-time Eq. 7 components, so a
loaded index serves queries without touching the corpus.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.core.correlation import CorrelationModel
from repro.core.mrf import MRFParameters
from repro.core.objects import Feature, MediaObject
from repro.index import binfmt
from repro.index.binfmt import BinaryFormatError
from repro.index.inverted import CliqueInvertedIndex
from repro.index.segmented import SegmentedCliqueIndex
from repro.index.vectorized import MmapVectorView
from repro.social.corpus import Corpus, FavoriteEvent
from repro.social.users import SocialGraph
from repro.text.taxonomy import Taxonomy
from repro.vision.visual_words import VisualCodebook

FORMAT_VERSION = 1


class StorageError(RuntimeError):
    """Raised for malformed or incompatible on-disk artifacts."""


def _read_json(path: Path, description: str) -> object:
    """Parse one JSON artifact, mapping every failure mode (missing
    file, undecodable bytes, malformed JSON) to :class:`StorageError`."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise StorageError(f"missing {description}: {path}") from None
    except OSError as exc:
        raise StorageError(f"unreadable {description} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StorageError(f"corrupt {description} {path}: {exc}") from exc


def _record_field(record: dict, key: str, path: Path, line_number: int) -> object:
    try:
        return record[key]
    except KeyError:
        raise StorageError(
            f"corrupt record in {path} line {line_number}: missing field {key!r}"
        ) from None


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------
def save_corpus(corpus: Corpus, directory: str | Path) -> Path:
    """Write ``corpus`` into ``directory`` (created if missing).

    Returns the directory path.  Existing artifacts are overwritten —
    a corpus directory is treated as a unit.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    meta = {
        "format_version": FORMAT_VERSION,
        "n_objects": len(corpus),
        "n_favorites": len(corpus.favorites),
        "n_months": corpus.n_months,
        "has_taxonomy": corpus.taxonomy is not None,
        "has_codebook": corpus.codebook is not None,
    }
    (path / "meta.json").write_text(json.dumps(meta, indent=2))

    with (path / "objects.jsonl").open("w") as fh:
        for obj in corpus:
            record = {
                "id": obj.object_id,
                "t": obj.timestamp,
                "features": {f.key: c for f, c in sorted(obj.features.items())},
            }
            fh.write(json.dumps(record) + "\n")

    with (path / "favorites.jsonl").open("w") as fh:
        for event in corpus.favorites:
            fh.write(
                json.dumps({"user": event.user, "object": event.object_id, "month": event.month})
                + "\n"
            )

    memberships = {u: sorted(corpus.social.groups_of(u)) for u in corpus.social.users}
    (path / "social.json").write_text(json.dumps(memberships, indent=0))

    topics = {
        obj.object_id: list(corpus.topics(obj.object_id))
        for obj in corpus
        if corpus.topics(obj.object_id)
    }
    (path / "topics.json").write_text(json.dumps(topics, indent=0))

    if corpus.taxonomy is not None:
        parents = {
            node: corpus.taxonomy.parent(node)
            for node in _taxonomy_nodes(corpus.taxonomy)
        }
        (path / "taxonomy.json").write_text(json.dumps(parents, indent=0))

    if corpus.codebook is not None:
        np.save(path / "codebook.npy", corpus.codebook.centroids)
        (path / "codebook.json").write_text(
            json.dumps({"similarity_scale": corpus.codebook.similarity_scale})
        )
    return path


def load_corpus(directory: str | Path) -> Corpus:
    """Load a corpus previously written by :func:`save_corpus`."""
    path = Path(directory)
    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise StorageError(f"{path} is not a corpus directory (missing meta.json)")
    meta = _read_json(meta_path, "corpus metadata")
    if not isinstance(meta, dict):
        raise StorageError(f"corrupt corpus metadata {meta_path}: not a JSON object")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported corpus format version {version!r}")

    objects: list[MediaObject] = []
    objects_path = path / "objects.jsonl"
    if not objects_path.exists():
        raise StorageError(f"missing object store: {objects_path}")
    with objects_path.open() as fh:
        for line_number, line in enumerate(fh, start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StorageError(
                    f"corrupt or truncated {objects_path} at line {line_number}: {exc}"
                ) from exc
            raw_features = _record_field(record, "features", objects_path, line_number)
            try:
                features = {
                    Feature.from_key(key): count for key, count in raw_features.items()
                }
            except (AttributeError, ValueError) as exc:
                raise StorageError(
                    f"corrupt feature bag in {objects_path} line {line_number}: {exc}"
                ) from exc
            objects.append(
                MediaObject(
                    object_id=_record_field(record, "id", objects_path, line_number),
                    features=features,
                    timestamp=_record_field(record, "t", objects_path, line_number),
                )
            )
    if len(objects) != meta.get("n_objects", len(objects)):
        raise StorageError(
            f"truncated {objects_path}: metadata promises {meta.get('n_objects')} "
            f"objects, found {len(objects)}"
        )

    favorites: list[FavoriteEvent] = []
    fav_path = path / "favorites.jsonl"
    if fav_path.exists():
        with fav_path.open() as fh:
            for line_number, line in enumerate(fh, start=1):
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise StorageError(
                        f"corrupt or truncated {fav_path} at line {line_number}: {exc}"
                    ) from exc
                favorites.append(
                    FavoriteEvent(
                        user=_record_field(record, "user", fav_path, line_number),
                        object_id=_record_field(record, "object", fav_path, line_number),
                        month=_record_field(record, "month", fav_path, line_number),
                    )
                )

    social = SocialGraph(_read_json(path / "social.json", "social graph"))
    topics_raw = _read_json(path / "topics.json", "topic ground truth")
    if not isinstance(topics_raw, dict):
        raise StorageError(f"corrupt topic ground truth {path / 'topics.json'}")
    topics = {oid: tuple(t) for oid, t in topics_raw.items()}

    taxonomy = None
    tax_path = path / "taxonomy.json"
    if tax_path.exists():
        taxonomy = Taxonomy(_read_json(tax_path, "taxonomy"))
    elif meta.get("has_taxonomy"):
        raise StorageError(f"metadata promises a taxonomy but {tax_path} is missing")

    codebook = None
    cb_path = path / "codebook.npy"
    if cb_path.exists():
        try:
            centroids = np.load(cb_path)
        except (OSError, ValueError) as exc:
            raise StorageError(f"corrupt codebook {cb_path}: {exc}") from exc
        cb_meta = _read_json(path / "codebook.json", "codebook metadata")
        if not isinstance(cb_meta, dict) or "similarity_scale" not in cb_meta:
            raise StorageError(
                f"corrupt codebook metadata {path / 'codebook.json'}: "
                "missing similarity_scale"
            )
        codebook = VisualCodebook(centroids, similarity_scale=cb_meta["similarity_scale"])
    elif meta.get("has_codebook"):
        raise StorageError(f"metadata promises a codebook but {cb_path} is missing")

    return Corpus(
        objects=objects,
        social=social,
        taxonomy=taxonomy,
        codebook=codebook,
        topics_of=topics,
        favorites=favorites,
        n_months=meta["n_months"],
    )


def append_objects(directory: str | Path, objects: Sequence[MediaObject]) -> Path:
    """Append ``objects`` to a saved corpus — the streaming-ingest
    durability path.

    New records append to ``objects.jsonl`` (the canonical record shape
    :func:`save_corpus` writes) and ``meta.json`` is rewritten atomically
    with the new object count, so a plain :func:`load_corpus` of the
    directory reflects the ingest.  The caller is responsible for id
    uniqueness (the in-memory :meth:`~repro.social.corpus.Corpus.extended`
    validates it before anything touches disk).  A crash between the
    append and the meta rewrite leaves the directory failing
    :func:`load_corpus`'s count check ("truncated") rather than silently
    serving a half-applied batch.
    """
    path = Path(directory)
    meta_path = path / "meta.json"
    meta = _read_json(meta_path, "corpus metadata")
    if not isinstance(meta, dict):
        raise StorageError(f"corrupt corpus metadata {meta_path}: not a JSON object")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported corpus format version {version!r}")
    objects_path = path / "objects.jsonl"
    if not objects_path.exists():
        raise StorageError(f"missing object store: {objects_path}")
    materialized = list(objects)
    with objects_path.open("a") as fh:
        for obj in materialized:
            record = {
                "id": obj.object_id,
                "t": obj.timestamp,
                "features": {f.key: c for f, c in sorted(obj.features.items())},
            }
            fh.write(json.dumps(record) + "\n")
        fh.flush()
    meta["n_objects"] = int(meta.get("n_objects", 0)) + len(materialized)
    tmp = meta_path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(meta, indent=2))
    tmp.replace(meta_path)
    return path


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------
def save_params(params: MRFParameters, file_path: str | Path) -> Path:
    """Write MRF parameters as JSON."""
    path = Path(file_path)
    payload = {
        "format_version": FORMAT_VERSION,
        "lambdas": {str(size): weight for size, weight in sorted(params.lambdas.items())},
        "alpha": params.alpha,
        "use_cors": params.use_cors,
        "delta": params.delta,
    }
    path.write_text(json.dumps(payload, indent=2))
    return path


def load_params(file_path: str | Path) -> MRFParameters:
    """Load MRF parameters written by :func:`save_params`."""
    path = Path(file_path)
    payload = _read_json(path, "parameter file")
    if not isinstance(payload, dict):
        raise StorageError(f"corrupt parameter file {path}: not a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported parameter format version {version!r}")
    try:
        return MRFParameters(
            lambdas={int(size): weight for size, weight in payload["lambdas"].items()},
            alpha=payload["alpha"],
            use_cors=payload["use_cors"],
            delta=payload["delta"],
        )
    except (KeyError, AttributeError, ValueError) as exc:
        raise StorageError(f"corrupt parameter file {path}: {exc}") from exc


# ----------------------------------------------------------------------
# clique inverted index
# ----------------------------------------------------------------------
def save_index(
    index: CliqueInvertedIndex | SegmentedCliqueIndex, file_path: str | Path
) -> Path:
    """Persist the index as a binary artifact.

    Postings serialize in key order whatever order the index iterates
    in, so a save/load round trip re-serializes identically.  Entry
    order *within* a posting is canonicalized to ascending object id —
    a pure permutation that cannot change rankings, since every
    consumer sorts by ``(-score, id)``.
    """
    path = Path(file_path)
    try:
        return binfmt.write_index_file(
            path,
            list(index.iter_postings()),
            n_objects=index.n_objects,
            max_clique_size=index.max_clique_size,
        )
    except BinaryFormatError as exc:
        raise StorageError(f"cannot write binary index {path}: {exc}") from exc
    except OSError as exc:
        raise StorageError(f"cannot write index artifact {path}: {exc}") from exc


def load_index(
    file_path: str | Path,
    correlations: CorrelationModel,
    *,
    verify_payload: bool = True,
) -> SegmentedCliqueIndex:
    """Open an index artifact as a main-only
    :class:`~repro.index.segmented.SegmentedCliqueIndex` over its
    mapping — O(metadata) to open, postings decode per clique on first
    touch.  The artifact stores every CorS and Eq. 7 component, so
    nothing is scored with ``correlations`` here.  ``verify_payload`` controls the eager CRC
    sweep of the posting/component payload sections.  Any file that is
    missing, not an index of the current format or corrupt raises
    :class:`StorageError`; one written by an older format version says
    so and names the command that rebuilds it.
    """
    path = Path(file_path)
    try:
        with path.open("rb") as fh:
            head = fh.read(len(binfmt.MAGIC))
    except FileNotFoundError:
        raise StorageError(f"missing index artifact: {path}") from None
    except OSError as exc:
        raise StorageError(f"unreadable index artifact {path}: {exc}") from exc
    version = binfmt.BINARY_FORMAT_VERSION
    if head != binfmt.MAGIC:
        stem, digit = head[:-1], head[-1:]
        if stem == binfmt.MAGIC[:-1] and digit.isdigit() and int(digit) < version:
            raise StorageError(
                f"{path} is a format v{digit.decode()} binary index, but only "
                f"v{version} can be read: rebuild it with "
                "`repro index build <corpus-dir>`"
            )
        raise StorageError(f"{path} is not a v{version} binary index (bad magic bytes)")
    try:
        reader = binfmt.BinaryIndexReader(path, verify_payload=verify_payload)
    except BinaryFormatError as exc:
        raise StorageError(f"corrupt binary index artifact {path}: {exc}") from exc
    return SegmentedCliqueIndex(MmapVectorView(reader))


def _taxonomy_nodes(taxonomy: Taxonomy) -> list[str]:
    """All nodes of a taxonomy (leaves + every ancestor)."""
    nodes: set[str] = set()
    for leaf in taxonomy.leaves():
        nodes.update(taxonomy.path_to_root(leaf))
    nodes.add(taxonomy.root)
    return sorted(nodes)
