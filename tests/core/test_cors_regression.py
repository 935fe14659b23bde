"""Eq. 8 (CorS) regression: the cached-column ``OccurrenceStats.cors``
against a transcription of the per-call body it replaced.

CorS is stored in every posting of ``index.bin``; a last-ULP change
would change the artifact's bytes and every ranking that multiplies by
it.  The reference below is the earlier body kept verbatim (only
``self`` became ``stats`` and its local ``stats`` list ``moments``), so
any reordering of its float operations shows up here.
"""

from __future__ import annotations

import pytest

from repro.core.correlation import OccurrenceStats
from repro.core.objects import Feature, MediaObject
from repro.core.retrieval import correlation_model_for_corpus
from repro.index.inverted import CliqueInvertedIndex
from repro.social.generator import GeneratorConfig, SyntheticFlickr

T = Feature.text


def reference_cors(stats: OccurrenceStats, features) -> float:
    if len(features) == 0:
        raise ValueError("CorS of an empty feature set is undefined")
    if len(features) == 1:
        return 1.0
    n = stats._n_objects
    if n == 0:
        return 0.0
    moments = [stats.moments(f) for f in features]
    if any(std == 0.0 for _, std in moments):
        return 0.0
    postings = [stats._postings.get(f, {}) for f in features]
    baseline = 1.0
    for mean, std in moments:
        baseline *= (0.0 - mean) / std
    support: set[int] = set()
    for posting in postings:
        support.update(posting)
    total = n * baseline
    for i in support:
        prod = 1.0
        for posting, (mean, std) in zip(postings, moments):
            prod *= (posting.get(i, 0) - mean) / std
        total += prod - baseline
    value = total / n
    return value if value > 0.0 else 0.0


@pytest.fixture(scope="module")
def corpus_300():
    config = GeneratorConfig(
        n_objects=300,
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
    return SyntheticFlickr(config, seed=7).generate_retrieval_corpus()


def test_every_clique_of_a_300_object_corpus(corpus_300):
    model = correlation_model_for_corpus(corpus_300)
    index = CliqueInvertedIndex(model, max_clique_size=3).build(corpus_300)
    postings = list(index.iter_postings())
    assert len(postings) > 1000
    sizes = set()
    for posting in postings:
        features = tuple(Feature.from_key(part) for part in posting.key.split("|"))
        sizes.add(len(features))
        expected = reference_cors(model.stats, features)
        assert model.stats.cors(features).hex() == expected.hex()
        assert posting.cors.hex() == expected.hex()
    assert sizes == {1, 2, 3}


def _stats(*bags):
    return OccurrenceStats(
        MediaObject(f"o{i}", features={T(name): count for name, count in bag.items()})
        for i, bag in enumerate(bags)
    )


def test_singleton_is_neutral():
    stats = _stats({"a": 1}, {"b": 2})
    assert stats.cors((T("a"),)) == reference_cors(stats, (T("a"),)) == 1.0


def test_unseen_feature_gives_zero():
    stats = _stats({"a": 1}, {"a": 2, "b": 1}, {"b": 1})
    features = (T("a"), T("never"))
    assert stats.cors(features) == reference_cors(stats, features) == 0.0


def test_zero_variance_feature_gives_zero():
    # "c" occurs once in every object: its standard deviation is 0.
    stats = _stats({"a": 1, "c": 1}, {"a": 2, "c": 1}, {"b": 1, "c": 1})
    features = (T("a"), T("c"))
    assert stats.cors(features) == reference_cors(stats, features) == 0.0
    # The cached "no column" answer is stable across calls.
    assert stats.cors(features) == 0.0


def test_anti_correlated_clamps_to_zero():
    stats = _stats({"a": 1}, {"a": 1}, {"b": 1}, {"b": 1})
    features = (T("a"), T("b"))
    mean_a, std_a = stats.moments(T("a"))
    mean_b, std_b = stats.moments(T("b"))
    pearson = sum(
        (stats.postings(T("a")).get(i, 0) - mean_a) / std_a
        * (stats.postings(T("b")).get(i, 0) - mean_b) / std_b
        for i in range(stats.n_objects)
    ) / stats.n_objects
    assert pearson < 0.0
    assert stats.cors(features) == reference_cors(stats, features) == 0.0


def test_positive_pair_and_triple_match_reference():
    stats = _stats({"a": 2, "b": 1}, {"a": 1, "b": 1, "c": 3}, {"c": 1}, {"a": 1, "c": 2}, {})
    for features in ((T("a"), T("b")), (T("a"), T("c")), (T("a"), T("b"), T("c"))):
        assert stats.cors(features).hex() == reference_cors(stats, features).hex()
