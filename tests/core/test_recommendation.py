"""Recommender: profiles, temporal weighting, Definition 2 mechanics."""

import pytest

from repro import GeneratorConfig, SyntheticFlickr
from repro.core.mrf import MRFParameters
from repro.core.objects import MediaObject
from repro.core.recommendation import Recommender
from repro.core.retrieval import RetrievalEngine
from repro.index.inverted import CliqueInvertedIndex
from repro.social.temporal import MonthWindow, TemporalSplit
from repro.storage.store import load_index, save_index


def test_candidates_are_eval_window_objects(recommender, rec_corpus):
    split = recommender.split
    for obj in recommender.candidates:
        assert obj.timestamp in split.evaluation


def test_profile_built_from_profile_window(recommender, rec_corpus):
    user = rec_corpus.favorite_users()[0]
    profile = recommender.profile_for(user)
    assert profile.user == user
    assert len(profile) > 0
    for obj in profile.history:
        assert obj.timestamp in recommender.split.profile


def test_profile_cached(recommender, rec_corpus):
    user = rec_corpus.favorite_users()[0]
    assert recommender.profile_for(user) is recommender.profile_for(user)


def test_profile_unknown_user_raises(recommender):
    with pytest.raises(ValueError):
        recommender.profile_for("nobody")


def test_profile_occurrences_cover_cliques(recommender, rec_corpus):
    user = rec_corpus.favorite_users()[0]
    profile = recommender.profile_for(user)
    for clique in profile.cliques:
        stamps = profile.occurrences[clique.features]
        assert stamps
        assert all(ts in recommender.split.profile for ts in stamps)


def test_temporal_weight_counts_occurrences(recommender, rec_corpus):
    user = rec_corpus.favorite_users()[0]
    profile = recommender.profile_for(user)
    clique = profile.cliques[0]
    n_occurrences = len(profile.occurrences[clique.features])
    # delta=1: weight is exactly the appearance count
    assert profile.temporal_weight(clique, t_now=3, delta=1.0) == n_occurrences


def test_temporal_weight_decays(recommender, rec_corpus):
    user = rec_corpus.favorite_users()[0]
    profile = recommender.profile_for(user)
    clique = profile.cliques[0]
    full = profile.temporal_weight(clique, t_now=3, delta=1.0)
    decayed = profile.temporal_weight(clique, t_now=3, delta=0.5)
    assert 0 < decayed < full


def test_recommend_returns_candidates_only(recommender, rec_corpus):
    user = rec_corpus.favorite_users()[0]
    hits = recommender.recommend(user, k=10)
    candidate_ids = {o.object_id for o in recommender.candidates}
    assert hits
    assert all(h.object_id in candidate_ids for h in hits)


def test_recommend_sorted_descending(recommender, rec_corpus):
    user = rec_corpus.favorite_users()[1]
    hits = recommender.recommend(user, k=10)
    scores = [h.score for h in hits]
    assert scores == sorted(scores, reverse=True)


def test_recommend_scan_mode_agrees_substantially(recommender, rec_corpus):
    user = rec_corpus.favorite_users()[0]
    idx = {h.object_id for h in recommender.recommend(user, k=10)}
    scan = {h.object_id for h in recommender.recommend(user, k=10, mode="scan")}
    assert len(idx & scan) >= 5


def test_invalid_mode_rejected(recommender, rec_corpus):
    for mode in ("warp", "index-rescore"):
        with pytest.raises(ValueError):
            recommender.recommend(rec_corpus.favorite_users()[0], k=3, mode=mode)


def test_scan_only_recommender(rec_corpus):
    rec = Recommender(rec_corpus, build_index=False)
    user = rec_corpus.favorite_users()[0]
    with pytest.raises(ValueError):
        rec.recommend(user, k=3, mode="index")
    assert rec.recommend(user, k=3, mode="scan")


def test_with_params_shares_structures(recommender):
    clone = recommender.with_params(MRFParameters(delta=0.5))
    assert clone.candidates is recommender.candidates
    assert clone.params.delta == 0.5


def test_with_params_rejects_larger_cliques(recommender):
    with pytest.raises(ValueError):
        recommender.with_params(MRFParameters(lambdas={4: 1.0}))


def test_delta_changes_ranking_weights(recommender, rec_corpus):
    """δ=1 vs strong decay generally produce different rankings for a
    user with a multi-month history (at minimum, valid output)."""
    user = rec_corpus.favorite_users()[0]
    no_decay = recommender.recommend(user, k=10)
    strong = recommender.with_params(MRFParameters(delta=0.1)).recommend(user, k=10)
    assert no_decay and strong


def test_custom_split():
    pass  # covered below with a concrete corpus


def test_custom_split_changes_candidates(rec_corpus):
    split = TemporalSplit(MonthWindow(0, 2), MonthWindow(2, 6))
    rec = Recommender(rec_corpus, split=split, build_index=False)
    assert all(o.timestamp in split.evaluation for o in rec.candidates)


def test_current_month_override(recommender, rec_corpus):
    user = rec_corpus.favorite_users()[0]
    hits = recommender.with_params(MRFParameters(delta=0.5)).recommend(
        user, k=5, current_month=5
    )
    assert len(hits) == 5


def test_recommend_vectorized_bitwise_parity(recommender, rec_corpus):
    """``auto`` (explicit and as the default) returns the same
    ids and float scores as the scalar index path."""
    for user in rec_corpus.favorite_users()[:3]:
        scalar = recommender.recommend(user, k=10, mode="index")
        fast = recommender.recommend(user, k=10, mode="auto")
        assert [(h.object_id, h.score) for h in fast] == [
            (h.object_id, h.score) for h in scalar
        ]
        assert recommender.recommend(user, k=10) == fast  # auto default


def test_recommend_vectorized_parity_under_decay(rec_corpus):
    """Temporal decay scales whole sources (the ``outer`` factor); the
    vectorized path must apply it identically."""
    rec = Recommender(rec_corpus, params=MRFParameters(delta=0.5))
    user = rec_corpus.favorite_users()[0]
    assert rec.recommend(user, k=10, mode="auto") == rec.recommend(
        user, k=10, mode="index"
    )


# ----------------------------------------------------------------------
# ranking over a shared (engine) index
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shared_indexes(rec_corpus, tmp_path_factory):
    """The retrieval engine's corpus-wide index, in memory and saved +
    reloaded as an mmap artifact, with the engine's correlation model."""
    engine = RetrievalEngine(rec_corpus)
    path = tmp_path_factory.mktemp("rec-shared") / "index.bin"
    save_index(engine.index, path)
    mmapped = load_index(path, engine.correlations)
    yield engine, {"memory": engine.index, "mmap": mmapped}
    mmapped.close()


@pytest.fixture(scope="module")
def private_recommender(rec_corpus):
    """A recommender over its own candidate index; tests rank through
    per-parameter ``with_params`` clones, which share that index."""
    return Recommender(rec_corpus)


@pytest.mark.parametrize("delta", [1.0, 0.5])
def test_shared_index_rankings_equal_private_index(
    rec_corpus, shared_indexes, private_recommender, delta
):
    """Ranking over the engine's index, masked to candidates, returns
    the private candidate index's rankings in ids and float scores."""
    engine, indexes = shared_indexes
    params = MRFParameters(delta=delta)
    private = private_recommender.with_params(params)
    candidate_ids = {o.object_id for o in private.candidates}
    shared = {
        name: Recommender(
            rec_corpus, params=params, index=index, correlations=engine.correlations
        )
        for name, index in indexes.items()
    }
    for user in rec_corpus.favorite_users():
        for mode in ("auto", "index"):
            expected = private.recommend(user, k=10, mode=mode)
            assert expected
            for name, rec in shared.items():
                got = rec.recommend(user, k=10, mode=mode)
                assert got == expected, (name, user, mode)
                assert all(h.object_id in candidate_ids for h in got)


def test_shared_index_init_scores_no_cliques(rec_corpus, shared_indexes, monkeypatch):
    """Given an index, init enumerates and scores nothing: the Eq. 7
    components and CorS all come from the shared postings."""
    import repro.core.mrf as mrf
    import repro.index.inverted as inverted
    from repro.core.correlation import CorrelationModel

    engine, indexes = shared_indexes
    calls = {"joint": 0, "kernel": 0, "cors": 0}
    joint = mrf.joint_components
    kernel = mrf.score_object
    cors = CorrelationModel.cors

    def counting_joint(*args, **kwargs):
        calls["joint"] += 1
        return joint(*args, **kwargs)

    def counting_kernel(*args, **kwargs):
        calls["kernel"] += 1
        return kernel(*args, **kwargs)

    def counting_cors(self, *args, **kwargs):
        calls["cors"] += 1
        return cors(self, *args, **kwargs)

    monkeypatch.setattr(mrf, "joint_components", counting_joint)
    monkeypatch.setattr(inverted, "score_object", counting_kernel)
    monkeypatch.setattr(CorrelationModel, "cors", counting_cors)
    for index in indexes.values():
        Recommender(rec_corpus, index=index, correlations=engine.correlations)
    assert calls == {"joint": 0, "kernel": 0, "cors": 0}
    # The counters do see a private build's scoring.
    Recommender(rec_corpus, correlations=engine.correlations)
    assert calls["kernel"] > 0 and calls["cors"] > 0


def test_foreign_index_missing_candidates_rejected(rec_corpus):
    """An index built over other objects would silently drop candidates."""
    profile_only = [o for o in rec_corpus if o.timestamp < rec_corpus.n_months // 2]
    engine = RetrievalEngine(rec_corpus, build_index=False)
    foreign = CliqueInvertedIndex(engine.correlations).build(profile_only)
    with pytest.raises(ValueError, match="candidates"):
        Recommender(rec_corpus, index=foreign, correlations=engine.correlations)


def test_foreign_index_smaller_clique_bound_rejected(rec_corpus):
    engine = RetrievalEngine(rec_corpus, build_index=False)
    shallow = CliqueInvertedIndex(engine.correlations, max_clique_size=2).build(rec_corpus)
    with pytest.raises(ValueError, match="size 2"):
        Recommender(rec_corpus, index=shallow, correlations=engine.correlations)


def test_with_params_shares_index_and_mask(rec_corpus, shared_indexes):
    engine, indexes = shared_indexes
    rec = Recommender(rec_corpus, index=indexes["mmap"], correlations=engine.correlations)
    clone = rec.with_params(MRFParameters(delta=0.5))
    assert clone.index is rec.index is indexes["mmap"]
    assert clone._candidate_mask is rec._candidate_mask


def test_adopted_builder_keeps_its_adoption_time_rankings():
    """An engine and a recommender adopting a builder read it as it was
    when adopted: objects the builder indexes afterwards change no
    ranking and break no read (the adopted view once kept a frozen id
    table over live postings, and the first read of a clique holding a
    later object raised ``KeyError``)."""
    config = GeneratorConfig(n_objects=60, n_tracked_users=3)
    corpus = SyntheticFlickr(config, seed=3).generate_recommendation_corpus()
    reference = RetrievalEngine(corpus)
    model = reference.correlations
    expected_rec = Recommender(corpus, index=reference.index, correlations=model)
    builder = CliqueInvertedIndex(model, max_clique_size=reference.params.max_clique_size)
    builder.build(corpus)
    engine = RetrievalEngine(corpus, build_index=False, index=builder)
    recommender = Recommender(corpus, index=builder, correlations=model)
    for i, obj in enumerate(corpus.objects[:5]):
        builder.add_object(
            MediaObject(f"late{i:03d}", features=dict(obj.features), timestamp=obj.timestamp)
        )

    def bits(hits):
        return [(hit.object_id, hit.score.hex()) for hit in hits]

    for query in corpus.objects[:10]:
        for mode in ("auto", "index"):
            assert bits(engine.search(query, k=10, mode=mode)) == bits(
                reference.search(query, k=10, mode=mode)
            )
    for user in corpus.favorite_users():
        for mode in ("auto", "index"):
            assert bits(recommender.recommend(user, k=10, mode=mode)) == bits(
                expected_rec.recommend(user, k=10, mode=mode)
            )
