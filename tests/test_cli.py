"""Command-line interface."""

import pytest

from repro.cli import main
from repro.storage.store import save_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, tiny_corpus):
    path = tmp_path_factory.mktemp("cli") / "corpus"
    save_corpus(tiny_corpus, path)
    return str(path)


@pytest.fixture(scope="module")
def rec_dir(tmp_path_factory, rec_corpus):
    path = tmp_path_factory.mktemp("cli") / "rec"
    save_corpus(rec_corpus, path)
    return str(path)


def test_generate_writes_corpus(tmp_path, capsys):
    out = tmp_path / "generated"
    code = main(["generate", "--objects", "40", "--topics", "4", "--users", "30",
                 "--out", str(out)])
    assert code == 0
    assert (out / "meta.json").exists()
    assert "wrote 40 objects" in capsys.readouterr().out


def test_generate_recommendation_requires_tracked(tmp_path, capsys):
    code = main(["generate", "--objects", "40", "--recommendation", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "tracked-users" in capsys.readouterr().err


def test_generate_recommendation_corpus(tmp_path, capsys):
    out = tmp_path / "rec"
    code = main(["generate", "--objects", "80", "--topics", "4", "--users", "30",
                 "--tracked-users", "2", "--recommendation", "--out", str(out)])
    assert code == 0


def test_info(corpus_dir, capsys):
    assert main(["info", corpus_dir]) == 0
    out = capsys.readouterr().out
    assert "objects" in out and "users" in out and "avg features" in out


def test_index_writes_artifact(tmp_path, tiny_corpus, capsys):
    from pathlib import Path

    from repro.storage.store import save_corpus as _save

    corpus_dir = tmp_path / "corpus"
    _save(tiny_corpus, corpus_dir)
    assert main(["index", "build", str(corpus_dir)]) == 0
    out = capsys.readouterr().out
    assert "cliques" in out and "postings" in out
    artifact = Path(corpus_dir) / "index.bin"
    assert artifact.exists()
    # a search against the indexed corpus still works and the artifact
    # round-trips into an engine with identical rankings
    from repro.core.retrieval import RetrievalEngine
    from repro.storage.store import load_corpus, load_index

    corpus = load_corpus(corpus_dir)
    built = RetrievalEngine(corpus)
    loaded = RetrievalEngine(corpus, build_index=False)
    loaded.adopt_index(load_index(artifact, loaded.correlations))
    query = corpus[0]
    assert built.search(query, k=5) == loaded.search(query, k=5)


def test_index_build_replaces_format_v3_artifact(
    tmp_path, tiny_corpus, capsys, mark_as_format_v3
):
    """The rebuild the refusal message names: ``repro index build``
    over a corpus holding a format-v3 ``index.bin`` replaces it with
    one of the current format that loads."""
    from repro.core.retrieval import RetrievalEngine
    from repro.index.binfmt import BINARY_FORMAT_VERSION, MAGIC, BinaryIndexReader
    from repro.storage.store import StorageError, load_corpus, load_index, save_index

    corpus_dir = tmp_path / "corpus"
    save_corpus(tiny_corpus, corpus_dir)
    artifact = corpus_dir / "index.bin"
    engine = RetrievalEngine(tiny_corpus)
    mark_as_format_v3(save_index(engine.index, artifact))
    with pytest.raises(StorageError, match="format v3"):
        load_index(artifact, engine.correlations)

    assert main(["index", "build", str(corpus_dir)]) == 0
    capsys.readouterr()
    assert artifact.read_bytes()[: len(MAGIC)] == MAGIC
    with BinaryIndexReader(artifact) as reader:
        assert reader.version == BINARY_FORMAT_VERSION
    with load_index(artifact, engine.correlations) as loaded:
        assert loaded.main.path == artifact
        assert loaded.n_objects == len(load_corpus(corpus_dir))


def test_index_invalid_workers(corpus_dir, capsys):
    assert main(["index", "build", corpus_dir, "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_index_missing_corpus_dir(tmp_path, capsys):
    code = main(["index", "build", str(tmp_path / "nope")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_index_build_failed_verify_exits_2(tmp_path, tiny_corpus, capsys, monkeypatch, workers):
    """A post-write verification failure is an operator error: exit 2
    with one ``error:`` line, at one worker and at two."""
    from repro.index import binfmt

    corpus_dir = tmp_path / "corpus"
    save_corpus(tiny_corpus, corpus_dir)

    def torn_write(path, *, verify_payload=True):
        raise binfmt.BinaryFormatError("section CRC mismatch", section="freq", offset=8)

    monkeypatch.setattr(binfmt, "BinaryIndexReader", torn_write)
    assert main(["index", "build", str(corpus_dir), "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "section='freq'" in err
    assert err.count("\n") == 1


def test_search(corpus_dir, tiny_corpus, capsys):
    query_id = tiny_corpus[0].object_id
    assert main(["search", corpus_dir, "--query", query_id, "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "query:" in out
    assert out.count("score=") == 3


def test_search_scan_mode(corpus_dir, tiny_corpus, capsys):
    query_id = tiny_corpus[1].object_id
    assert main(["search", corpus_dir, "--query", query_id, "--k", "2", "--mode", "scan"]) == 0


def test_search_unknown_query(corpus_dir, capsys):
    assert main(["search", corpus_dir, "--query", "ghost"]) == 2
    assert "unknown object id" in capsys.readouterr().err


def test_recommend(rec_dir, rec_corpus, capsys):
    user = rec_corpus.favorite_users()[0]
    assert main(["recommend", rec_dir, "--user", user, "--k", "3", "--delta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "FIG-T" in out
    assert out.count("score=") == 3


def test_recommend_unknown_user(rec_dir, capsys):
    assert main(["recommend", rec_dir, "--user", "nobody"]) == 2
    assert "error" in capsys.readouterr().err


def test_evaluate(corpus_dir, capsys):
    assert main(["evaluate", corpus_dir, "--queries", "4", "--cutoffs", "3", "5"]) == 0
    out = capsys.readouterr().out
    assert "P@3=" in out and "P@5=" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_search_missing_corpus_dir(tmp_path, capsys):
    code = main(["search", str(tmp_path / "nope"), "--query", "obj000000"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_info_missing_corpus_dir(tmp_path, capsys):
    assert main(["info", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


def test_recommend_missing_corpus_dir(tmp_path, capsys):
    assert main(["recommend", str(tmp_path / "nope"), "--user", "u"]) == 2
    assert "error:" in capsys.readouterr().err


def test_evaluate_missing_corpus_dir(tmp_path, capsys):
    assert main(["evaluate", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


def test_serve_missing_corpus_dir(tmp_path, capsys):
    assert main(["serve", str(tmp_path / "nope"), "--port", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_search_corrupt_corpus_dir(tmp_path, capsys, tiny_corpus):
    """A corrupt objects.jsonl yields exit 2 + one-line error, not a
    traceback."""
    path = tmp_path / "corrupt"
    save_corpus(tiny_corpus, path)
    (path / "objects.jsonl").write_text('{"id": "x", "t": 0, "featu')
    code = main(["search", str(path), "--query", "obj000000"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_search_bad_format_version(tmp_path, capsys, tiny_corpus):
    import json as _json

    path = tmp_path / "oldver"
    save_corpus(tiny_corpus, path)
    meta = _json.loads((path / "meta.json").read_text())
    meta["format_version"] = 999
    (path / "meta.json").write_text(_json.dumps(meta))
    assert main(["info", str(path)]) == 2
    assert "format version" in capsys.readouterr().err


def test_index_build_no_verify_payload(tmp_path, tiny_corpus, capsys):
    from pathlib import Path

    corpus_dir = tmp_path / "corpus"
    save_corpus(tiny_corpus, corpus_dir)
    assert main(["index", "build", str(corpus_dir), "--no-verify-payload"]) == 0
    artifact = Path(corpus_dir) / "index.bin"
    assert artifact.exists()
    # the artifact is fully valid — only the post-write sweep was skipped
    from repro.index.binfmt import BinaryIndexReader

    BinaryIndexReader(artifact, verify_payload=True).close()


def test_search_vectorized_mode(corpus_dir, tiny_corpus, capsys):
    query_id = tiny_corpus[0].object_id
    assert main(["search", corpus_dir, "--query", query_id, "--k", "3",
                 "--mode", "auto"]) == 0
    vec_out = capsys.readouterr().out
    assert vec_out.count("score=") == 3
    # auto (the default) prints the same ranking
    assert main(["search", corpus_dir, "--query", query_id, "--k", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == vec_out.splitlines()[1:]


def test_recommend_same_output_with_index_artifact(tmp_path, rec_corpus, capsys):
    """`repro recommend` opens the corpus like `serve` does: with an
    `index.bin` beside it, it ranks over the artifact and prints the
    same lines as over a freshly built index."""
    path = tmp_path / "rec"
    save_corpus(rec_corpus, path)
    user = rec_corpus.favorite_users()[0]
    argv = ["recommend", str(path), "--user", user, "--k", "5", "--delta", "0.5"]
    assert main(argv) == 0
    built = capsys.readouterr().out
    assert main(["index", "build", str(path)]) == 0
    capsys.readouterr()
    assert (path / "index.bin").is_file()
    assert main(argv) == 0
    assert capsys.readouterr().out == built
    assert built.count("score=") == 5
