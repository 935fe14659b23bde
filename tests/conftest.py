"""Shared fixtures: small deterministic corpora and engines.

Session-scoped where construction is expensive; tests must not mutate
them.  Sizes are deliberately tiny — the statistical shape checks live
in the benchmarks, tests check mechanics and invariants.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.core.mrf import MRFParameters
from repro.core.recommendation import Recommender
from repro.core.retrieval import RetrievalEngine, correlation_model_for_corpus
from repro.diagnostics.contracts import ENV_VAR, reset_contracts_cache
from repro.social.generator import GeneratorConfig, SyntheticFlickr


TINY_CONFIG = GeneratorConfig(
    n_objects=120,
    n_topics=6,
    n_users=60,
    n_groups=18,
    tags_per_topic=20,
    n_common_tags=15,
    n_noise_tags=30,
    visual_words_per_topic=8,
    n_common_visual_words=8,
    n_noise_visual_words=16,
)

REC_CONFIG = GeneratorConfig(
    n_objects=240,
    n_topics=6,
    n_users=60,
    n_groups=18,
    tags_per_topic=20,
    n_common_tags=15,
    n_noise_tags=30,
    visual_words_per_topic=8,
    n_common_visual_words=8,
    n_noise_visual_words=16,
    n_tracked_users=6,
)


@pytest.fixture
def contracts_on(monkeypatch):
    """Arm the runtime contracts for one test.  The flag is cached per
    process, so it is reset on the way in and, after the environment
    is restored, on the way out."""
    monkeypatch.setenv(ENV_VAR, "1")
    reset_contracts_cache()
    yield
    monkeypatch.undo()
    reset_contracts_cache()


@pytest.fixture
def contracts_off(monkeypatch):
    """Disarm the runtime contracts for one test (see ``contracts_on``)."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_contracts_cache()
    yield
    monkeypatch.undo()
    reset_contracts_cache()


@pytest.fixture
def mark_as_format_v3():
    """Rewrite an ``index.bin`` header as format v3's (magic
    ``RPROIDX3``, version 3, header CRC re-sealed): the artifact an
    older build left behind, which loading must refuse."""

    def rewrite(path):
        data = bytearray(path.read_bytes())
        data[:8] = b"RPROIDX3"
        struct.pack_into("<I", data, 8, 3)
        struct.pack_into("<I", data, 48, zlib.crc32(bytes(data[:48])))
        path.write_bytes(bytes(data))

    return rewrite


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_corpus():
    """~120-object retrieval corpus with full context attached."""
    return SyntheticFlickr(TINY_CONFIG, seed=42).generate_retrieval_corpus()


@pytest.fixture(scope="session")
def rec_corpus():
    """~240-object recommendation corpus with tracked-user favorites."""
    return SyntheticFlickr(REC_CONFIG, seed=43).generate_recommendation_corpus()


@pytest.fixture(scope="session")
def correlations(tiny_corpus):
    return correlation_model_for_corpus(tiny_corpus)


@pytest.fixture(scope="session")
def engine(tiny_corpus):
    """Retrieval engine with index, shared across read-only tests."""
    return RetrievalEngine(tiny_corpus)


@pytest.fixture(scope="session")
def recommender(rec_corpus):
    """FIG recommender (no decay) over the recommendation corpus."""
    return Recommender(rec_corpus, params=MRFParameters(delta=1.0))
