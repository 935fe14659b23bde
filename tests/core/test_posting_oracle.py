"""Per-entry oracle: every stored posting entry equals the live model.

The index stores, per clique, its CorS (Eq. 8) and, per (clique,
object) entry, the two α-free Eq. 7 components, all computed once at
build time; both index modes only mix, scale and sum them.  So each
stored entry must equal what :class:`~repro.core.mrf.CliqueScorer` —
the exact model the scans run — computes live for the same pair:

* stored ``(freq, smooth)`` == :func:`~repro.core.mrf.joint_components`;
* stored CorS == ``correlations.cors``;
* at every α and for a temporal weight ``outer``,
  ``scale_impacts(mix_components(freq, smooth, α), λ·CorS, outer)``
  == ``outer * CliqueScorer.potential(clique, obj)`` — the association
  the query paths use, bit for bit.

Floats are compared as raw IEEE-754 bits, so ``-0.0`` and ``0.0``
differ and every ulp counts.  The check runs over every entry of the tiny
retrieval and recommendation corpora's indexes, as built and after one
``save_index`` → ``load_index`` round trip, with contracts on and off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cliques import Clique
from repro.core.mrf import (
    CliqueScorer,
    MRFParameters,
    joint_components,
    mix_components,
    scale_impacts,
)
from repro.core.retrieval import RetrievalEngine
from repro.social.temporal import decay_weight
from repro.storage.store import load_index, save_index

ALPHAS = (0.0, 0.3, 0.7, 1.0)
#: Retrieval's weight and a recommendation profile's Eq. 10 weight
#: (a clique seen three months and one month before ``t_now``).
OUTERS = (1.0, decay_weight(3, 0.6) + decay_weight(1, 0.6))
#: The λ the stored CorS is scaled by (default parameters).
PARAMS = MRFParameters()


def _stored(view):
    """``(entries, columns)``: every stored entry of ``view`` as ``(key,
    object_id)`` and, one column per entry, its stored freq, smooth and
    CorS followed by its potential per (α, outer) — mixed and scaled as
    the query paths do, over whole arrays."""
    entries: list[tuple[str, str]] = []
    parts = []
    for key in view.keys():
        vectors = view.vectors(key)
        n = len(vectors)
        entries += [(key, view.object_id(dense)) for dense in vectors.ids.tolist()]
        lam = PARAMS.lambda_for(Clique.from_key(key).size)
        parts.append((vectors.freq, vectors.smooth, np.full(n, vectors.cors), np.full(n, lam)))
    freq, smooth, cors, lam = (np.concatenate(column) for column in zip(*parts))
    inner = lam * cors
    scaled = [
        scale_impacts(mix_components(freq, smooth, alpha), inner, outer)
        for alpha in ALPHAS
        for outer in OUTERS
    ]
    return entries, np.stack([freq, smooth, cors, *scaled])


@pytest.fixture(scope="module", params=["tiny_corpus", "rec_corpus"])
def live(request):
    """The corpus and, for every entry of its built index, what the
    entry must store, computed live from an engine of its own: freq,
    smooth, CorS and ``outer * potential`` per (α, outer)."""
    corpus = request.getfixturevalue(request.param)
    engine = RetrievalEngine(corpus)
    correlations = engine.correlations
    scorers = [CliqueScorer(correlations, MRFParameters(alpha=alpha)) for alpha in ALPHAS]
    row_sums: dict[str, dict] = {}
    expected: dict[tuple[str, str], tuple[float, ...]] = {}
    for key, object_id in _stored(engine.index.vector_view())[0]:
        clique = Clique.from_key(key)
        obj = corpus.get(object_id)
        freq, smooth = joint_components(
            clique, obj, correlations, row_sums.setdefault(object_id, {})
        )
        potentials = [scorer.potential(clique, obj) for scorer in scorers]
        expected[key, object_id] = (
            freq,
            smooth,
            correlations.cors(clique.features),
            *[outer * p for p in potentials for outer in OUTERS],
        )
    return corpus, expected


def _mismatches(view, expected):
    """Entries of ``view`` whose stored or scaled bits differ from
    ``expected`` (compared as raw IEEE-754 bits, so ``-0.0 != 0.0``)."""
    entries, columns = _stored(view)
    assert sorted(entries) == sorted(expected)
    want = np.array([expected[entry] for entry in entries]).T
    bad = np.flatnonzero((columns.view(np.uint64) != want.view(np.uint64)).any(axis=0))
    return [entries[i] for i in bad]


@pytest.mark.parametrize("contracts", ["contracts_on", "contracts_off"])
def test_every_stored_entry_equals_live_model(request, tmp_path, live, contracts):
    request.getfixturevalue(contracts)
    corpus, expected = live
    engine = RetrievalEngine(corpus)
    assert _mismatches(engine.index.vector_view(), expected) == []
    loaded = load_index(save_index(engine.index, tmp_path / "index.bin"), engine.correlations)
    try:
        assert _mismatches(loaded.vector_view(), expected) == []
    finally:
        loaded.close()
