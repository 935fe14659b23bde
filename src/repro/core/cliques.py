"""Clique enumeration over FIG feature subgraphs.

Section 3.3 restricts "clique" to complete subgraphs of the FIG that
contain the virtual root and at least one feature node.  Because the
root is adjacent to *every* feature node, those cliques are exactly
``{root} ∪ K`` for ``K`` a non-empty clique of the feature subgraph —
so enumeration happens on the feature subgraph only, and the root is
implicit everywhere downstream.

The number of cliques is exponential in the densest neighbourhood, and
the paper itself caps the hypothesis space by tying λ to clique size
(Section 3.4, citing [16]'s three dependence patterns).  We therefore
enumerate cliques up to a configurable ``max_size`` (feature count,
default 3), which bounds both scoring cost and inverted-index size.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping, Sequence
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import TypeVar

from repro.core.objects import Feature
from repro.diagnostics.contracts import (
    ContractViolation,
    check_canonical_features,
    contracts_enabled,
)

#: A clique-enumeration node: a :class:`Feature`, or an index into a
#: canonically ordered feature tuple.
N = TypeVar("N", bound=Hashable)


@dataclass(frozen=True)
class Clique:
    """A FIG clique: its feature nodes (root implicit) and, for profile
    FIGs, the month timestamp of its most recent appearance.

    ``features`` is kept sorted so equal feature sets compare and hash
    equal regardless of construction order.
    """

    features: tuple[Feature, ...]
    timestamp: int | None = None

    def __post_init__(self) -> None:
        if not self.features:
            raise ValueError("a clique must contain at least one feature node")
        ordered = tuple(sorted(self.features))
        object.__setattr__(self, "features", ordered)
        if contracts_enabled():
            # Sorting is ours; what this actually catches is duplicate
            # features, which would corrupt the clique's index key.
            check_canonical_features(ordered, what=f"clique {ordered!r}")

    @property
    def size(self) -> int:
        """Number of feature nodes, i.e. ``|c| - 1`` in the paper's
        notation (which counts the root)."""
        return len(self.features)

    @property
    def key(self) -> str:
        """Canonical string key, e.g. ``"T:sunset|U:user0042"`` — the
        inverted index's term."""
        return "|".join(f.key for f in self.features)

    @classmethod
    def from_key(cls, key: str, timestamp: int | None = None) -> "Clique":
        """Inverse of :attr:`key`."""
        return cls(
            features=tuple(Feature.from_key(part) for part in key.split("|")),
            timestamp=timestamp,
        )

    def with_timestamp(self, timestamp: int | None) -> "Clique":
        return Clique(features=self.features, timestamp=timestamp)

    def __iter__(self) -> Iterator[Feature]:
        return iter(self.features)

    def __len__(self) -> int:
        return len(self.features)


def enumerate_cliques(
    nodes: Sequence[N],
    adjacency: Mapping[N, AbstractSet[N]],
    max_size: int = 3,
) -> list[tuple[N, ...]]:
    """All cliques of size 1..``max_size`` in the feature subgraph.

    Uses ordered extension: a clique is grown only by neighbours that
    rank after its last member (canonical order), so each clique is
    produced exactly once.  Complexity is output-sensitive —
    O(Σ_cliques size) adjacency checks.

    Parameters
    ----------
    nodes:
        The feature nodes (or their indices — the build's scoring
        kernel enumerates over ``range(n)``); order defines the
        canonical ranking.
    adjacency:
        Undirected adjacency over ``nodes`` (absent nodes = isolated).
    max_size:
        Largest clique (feature count) to emit; ``>= 1``.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    order = {node: i for i, node in enumerate(nodes)}
    results: list[tuple[N, ...]] = []

    def extend(current: list[N], candidates: list[N]) -> None:
        for i, node in enumerate(candidates):
            clique = current + [node]
            results.append(tuple(clique))
            if len(clique) >= max_size:
                continue
            neighbours = adjacency.get(node, frozenset())
            nxt = [c for c in candidates[i + 1 :] if c in neighbours]
            if nxt:
                extend(clique, nxt)

    ordered_nodes = sorted(nodes, key=order.__getitem__)
    extend([], ordered_nodes)
    if contracts_enabled():
        for clique in results:
            if len(set(clique)) != len(clique) or len(clique) > max_size:
                raise ContractViolation(
                    f"enumerated clique {clique!r} violates distinctness or "
                    f"the max_size={max_size} bound"
                )
    return results
