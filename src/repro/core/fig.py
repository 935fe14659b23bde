"""Feature Interaction Graph (FIG).

Section 3.2: a FIG represents one multimedia object as an undirected
graph — a virtual root node for the object, one node per feature, an
edge from the root to every feature node, and an edge between two
feature nodes iff their correlation exceeds the trained threshold.

Section 4 adds the *profile* variant for recommendation: the user
history ``H_u`` is one big FIG over the union of the favorite objects'
features, but feature-feature edges are only drawn **within** each
individual object ("we only connect the feature nodes from each
individual object"), avoiding noisy cross-object cliques.  Cliques of a
profile FIG are therefore enumerated per historical object and merged;
each carries the timestamp (month) of its most recent appearance, which
Eq. 10's decay consumes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.cliques import Clique, enumerate_cliques
from repro.core.correlation import CorrelationModel
from repro.core.mrf import object_rows
from repro.core.objects import Feature, MediaObject


class FeatureInteractionGraph:
    """An immutable FIG: feature nodes + thresholded correlation edges.

    The virtual root is implicit (it is adjacent to every node by
    construction, so storing it adds nothing); :meth:`cliques` returns
    feature-node cliques, each standing for the paper's
    ``{root} ∪ features`` clique.

    For profile FIGs, ``subgraphs`` records each historical object's
    feature set and timestamp; clique enumeration then runs per
    subgraph.  Because the correlation test is object-independent, the
    union graph restricted to one object's features *is* that object's
    own FIG, so no per-object edge storage is needed.
    """

    def __init__(
        self,
        nodes: Sequence[Feature],
        edges: Iterable[tuple[Feature, Feature]],
        source_id: str = "",
        subgraphs: Sequence[tuple[frozenset[Feature], int]] | None = None,
    ) -> None:
        self._nodes: tuple[Feature, ...] = tuple(sorted(set(nodes)))
        node_set = set(self._nodes)
        adjacency: dict[Feature, set[Feature]] = {n: set() for n in self._nodes}
        for a, b in edges:
            if a == b:
                continue
            if a not in node_set or b not in node_set:
                raise ValueError(f"edge ({a}, {b}) references a non-node")
            adjacency[a].add(b)
            adjacency[b].add(a)
        self._adjacency: dict[Feature, frozenset[Feature]] = {
            n: frozenset(neigh) for n, neigh in adjacency.items()
        }
        self._source_id = source_id
        self._subgraphs: tuple[tuple[frozenset[Feature], int], ...] | None = (
            tuple(subgraphs) if subgraphs is not None else None
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_object(
        cls, obj: MediaObject, correlations: CorrelationModel
    ) -> "FeatureInteractionGraph":
        """Build the FIG of a single object (Section 3.2).

        Every pair of the object's distinct features is tested against
        the correlation tables; pairs above their table's threshold get
        an edge.  The pair values come from :func:`object_rows`, the
        same rows the index build scores from.
        """
        rows = object_rows(obj, correlations)
        return cls(nodes=rows.nodes, edges=rows.edges(), source_id=obj.object_id)

    @classmethod
    def from_profile(
        cls,
        history: Sequence[MediaObject],
        correlations: CorrelationModel,
        profile_id: str = "",
    ) -> "FeatureInteractionGraph":
        """Build the profile FIG of a user history (Section 4).

        Nodes are the union of all favorites' features; edges are only
        drawn between features co-occurring in the same historical
        object, so cliques never mix features from different favorites.
        """
        if not history:
            raise ValueError("cannot build a profile FIG from an empty history")
        nodes: set[Feature] = set()
        edges: set[tuple[Feature, Feature]] = set()
        subgraphs: list[tuple[frozenset[Feature], int]] = []
        for obj in history:
            rows = object_rows(obj, correlations)
            nodes.update(rows.nodes)
            subgraphs.append((frozenset(rows.nodes), obj.timestamp))
            edges.update(rows.edges())
        return cls(
            nodes=sorted(nodes),
            edges=edges,
            source_id=profile_id,
            subgraphs=subgraphs,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[Feature, ...]:
        return self._nodes

    @property
    def source_id(self) -> str:
        """Id of the object (or profile) this FIG represents."""
        return self._source_id

    @property
    def is_profile(self) -> bool:
        """True for profile FIGs built by :meth:`from_profile`."""
        return self._subgraphs is not None

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, feature: Feature) -> bool:
        return feature in self._adjacency

    def neighbours(self, feature: Feature) -> frozenset[Feature]:
        """Feature-node neighbours (the implicit root is excluded)."""
        return self._adjacency.get(feature, frozenset())

    def has_edge(self, a: Feature, b: Feature) -> bool:
        return b in self._adjacency.get(a, frozenset())

    def n_edges(self) -> int:
        """Number of feature-feature edges."""
        return sum(len(neigh) for neigh in self._adjacency.values()) // 2

    # ------------------------------------------------------------------
    # cliques
    # ------------------------------------------------------------------
    def cliques(self, max_size: int = 3) -> list[Clique]:
        """All root-anchored cliques with up to ``max_size`` feature
        nodes.

        Object FIGs enumerate over the whole graph (timestamps
        ``None``).  Profile FIGs report each distinct feature set once,
        carrying its **most recent** appearance month; use
        :meth:`clique_occurrences` when every appearance matters (the
        Eq. 10 sum runs over appearances, not distinct feature sets).
        """
        if self._subgraphs is None:
            raw = enumerate_cliques(self._nodes, self._adjacency, max_size=max_size)
            return [Clique(features=f) for f in raw]
        return [
            Clique(features=f, timestamp=max(stamps))
            for f, stamps in sorted(self.clique_occurrences(max_size=max_size).items())
        ]

    def clique_occurrences(self, max_size: int = 3) -> dict[tuple[Feature, ...], tuple[int, ...]]:
        """Profile FIGs only: feature set -> months of every appearance.

        A clique that recurs in several favorites appears once per
        containing history object; Eq. 10 sums a decayed potential per
        appearance, so a persistent interest accumulates weight while a
        stale one decays — exactly the behaviour Fig. 10 sweeps.
        """
        if self._subgraphs is None:
            raise ValueError("clique_occurrences is only defined for profile FIGs")
        occurrences: dict[tuple[Feature, ...], list[int]] = {}
        for feats, timestamp in self._subgraphs:
            local_nodes = sorted(feats)
            local_adj = {
                n: self._adjacency.get(n, frozenset()) & feats for n in local_nodes
            }
            for features in enumerate_cliques(local_nodes, local_adj, max_size=max_size):
                occurrences.setdefault(features, []).append(timestamp)
        return {f: tuple(sorted(ts)) for f, ts in occurrences.items()}
