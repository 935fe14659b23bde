"""Multi-modal object model.

The paper (Section 3.1) writes a social media object as
``O = <T, V, U>`` — a bag of textual features, a bag of visual-word
features and a bag of user features.  This module defines the typed
feature and object classes every other component operates on:

* :class:`FeatureType` — the three modalities (extensible in principle;
  the paper notes audio etc. would fit the same framework);
* :class:`Feature` — an immutable ``(type, name)`` pair, hashable so it
  can serve as a graph node, index key and dictionary key;
* :class:`MediaObject` — an object id plus a frequency bag of features
  and a month-granularity timestamp (Section 4 fixes the time basis to
  months).

Interning.  A process holds one :class:`Feature` per ``(type, name)``:
every construction path (``Feature(...)``, :meth:`Feature.from_key`,
the ``text``/``visual``/``user`` helpers, hence ``load_corpus``, the
generator, :meth:`MediaObject.build`, ``Clique.from_key`` and
``/ingest`` parsing) returns the interned instance.  Equal features are
therefore the same object, so the dicts that every build and query
loop keys by feature compare and hash by identity, in C, instead of
calling a Python-level ``__eq__``/``__hash__`` per lookup.  Each
instance also carries ``id``, a dense int assigned at first
construction; the correlation memo keys feature pairs by these ids.
Ids are process-local: they are never reused and never pickled.  A
pickled feature carries only ``(type, name)`` and re-interns in the
receiving process, so a pool worker gets its own instance and id.
The intern table only grows; it holds each distinct feature a process
has seen.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field


class FeatureType(enum.Enum):
    """The three feature modalities of Section 3.1."""

    TEXT = "T"
    VISUAL = "V"
    USER = "U"

    def __lt__(self, other: "FeatureType") -> bool:
        if not isinstance(other, FeatureType):
            return NotImplemented
        return self.value < other.value


#: Convenient aliases for the canonical modality triple.
ALL_TYPES: tuple[FeatureType, ...] = (FeatureType.TEXT, FeatureType.VISUAL, FeatureType.USER)


#: Every :class:`Feature` of this process, by canonical key and by id.
#: Ids come from one counter, so an id is never reused.
_BY_KEY: dict[str, "Feature"] = {}
_BY_ID: dict[int, "Feature"] = {}
_NEXT_ID = itertools.count()


class Feature:
    """One feature node: a modality plus a name within that modality.

    Names are namespaced per type, so the tag ``"sunset"`` and a
    hypothetical user called ``"sunset"`` are distinct features.

    Instances are interned: constructing ``(ftype, name)`` again
    returns the same object, so equality and hashing are identity's.
    ``id`` is a dense process-local int (see the module docstring).
    Ordering is by ``(ftype.value, name)``, which is the order of
    :attr:`key`, because every type code is one character.
    """

    __slots__ = ("ftype", "name", "key", "id")

    ftype: FeatureType
    name: str
    #: Canonical string form, e.g. ``"T:sunset"`` — used by the storage
    #: layer and the inverted index.
    key: str
    id: int

    def __new__(cls, ftype: FeatureType, name: str) -> "Feature":
        if not name:
            # "T:" would not parse back (see from_key).
            raise ValueError("a feature name must be non-empty")
        key = f"{ftype.value}:{name}"
        feature = _BY_KEY.get(key)
        if feature is None:
            feature = _intern(key, ftype, name)
        return feature

    @classmethod
    def from_key(cls, key: str) -> "Feature":
        """Inverse of :attr:`key`."""
        feature = _BY_KEY.get(key)
        if feature is None:
            feature = cls(*parse_feature_key(key))
        return feature

    @classmethod
    def from_id(cls, feature_id: int) -> "Feature":
        """The interned feature holding ``feature_id`` in this process."""
        return _BY_ID[feature_id]

    @classmethod
    def text(cls, name: str) -> "Feature":
        return cls(FeatureType.TEXT, name)

    @classmethod
    def visual(cls, name: str) -> "Feature":
        return cls(FeatureType.VISUAL, name)

    @classmethod
    def user(cls, name: str) -> "Feature":
        return cls(FeatureType.USER, name)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Feature is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Feature is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple[type["Feature"], tuple[FeatureType, str]]:
        # Only (type, name) crosses a pickle boundary: the receiving
        # process re-interns, so its own instance and id apply there.
        return (Feature, (self.ftype, self.name))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Feature):
            return NotImplemented
        return self.key < other.key

    def __le__(self, other: object) -> bool:
        if not isinstance(other, Feature):
            return NotImplemented
        return self.key <= other.key

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, Feature):
            return NotImplemented
        return self.key > other.key

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, Feature):
            return NotImplemented
        return self.key >= other.key

    def __repr__(self) -> str:
        return f"Feature(ftype={self.ftype!r}, name={self.name!r})"

    def __str__(self) -> str:
        return self.key


def parse_feature_key(key: str) -> tuple[FeatureType, str]:
    """Split a canonical feature key into ``(type, name)`` without
    interning anything; raises ``ValueError`` for a malformed key or an
    unknown type code."""
    type_code, sep, name = key.partition(":")
    if not sep or not name:
        raise ValueError(f"malformed feature key {key!r}")
    return FeatureType(type_code), name


def _intern(key: str, ftype: FeatureType, name: str) -> Feature:
    """Create the one instance for ``key``.  Serving threads intern
    concurrently, and the prefork supervisor forks while they may run,
    so this takes no lock (a child could inherit it held): ``setdefault``
    is atomic, keeps the first of two racing candidates, and the
    loser's id is dropped unused."""
    candidate = object.__new__(Feature)
    fid = next(_NEXT_ID)
    for slot, value in (("ftype", ftype), ("name", name), ("key", key), ("id", fid)):
        object.__setattr__(candidate, slot, value)
    _BY_ID[fid] = candidate
    feature = _BY_KEY.setdefault(key, candidate)
    if feature is not candidate:
        del _BY_ID[fid]
    return feature


@dataclass(frozen=True)
class MediaObject:
    """A social media object: id, feature frequency bag, timestamp.

    Attributes
    ----------
    object_id:
        Stable identifier within its corpus.
    features:
        ``Feature -> frequency`` bag.  Frequencies feed the
        ``freq(.|O_i)`` term of the potential function (Eq. 7); tags and
        users usually have frequency 1 while visual words repeat with
        block counts.
    timestamp:
        Month index (0-based) of upload/favoriting.  Retrieval ignores
        it; the temporal recommendation model (Eq. 10) reads it.
    """

    object_id: str
    features: Mapping[Feature, int] = field(default_factory=dict)
    timestamp: int = 0

    def __post_init__(self) -> None:
        for feature, count in dict(self.features).items():
            if not isinstance(feature, Feature):
                raise TypeError(f"feature keys must be Feature, got {type(feature).__name__}")
            if count <= 0:
                raise ValueError(f"feature {feature} has non-positive count {count}")
        bag = Counter()
        # Canonical (sorted) insertion order: float summations over the
        # bag iterate it directly, and float addition is not associative,
        # so a generated object and its save/load round trip must present
        # features in the same order or scores drift in the last ULP.
        for feature, count in sorted(dict(self.features).items()):
            bag[feature] = int(count)
        object.__setattr__(self, "features", bag)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        object_id: str,
        tags: Iterable[str] = (),
        visual_words: Iterable[str] = (),
        users: Iterable[str] = (),
        timestamp: int = 0,
    ) -> "MediaObject":
        """Assemble an object from per-modality name iterables.

        Repeated names accumulate frequency, so passing a visual-word
        list with duplicates yields the correct block counts.
        """
        bag: Counter[Feature] = Counter()
        for name in tags:
            bag[Feature.text(name)] += 1
        for name in visual_words:
            bag[Feature.visual(name)] += 1
        for name in users:
            bag[Feature.user(name)] += 1
        return cls(object_id=object_id, features=bag, timestamp=timestamp)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Total feature occurrences ``|O_i|`` (Eq. 7 denominator)."""
        return sum(self.features.values())

    def __contains__(self, feature: Feature) -> bool:
        return feature in self.features

    def __iter__(self) -> Iterator[Feature]:
        return iter(self.features)

    def frequency(self, feature: Feature) -> int:
        """Occurrence count of ``feature`` in this object (0 if absent)."""
        return self.features.get(feature, 0)

    def distinct_features(self) -> tuple[Feature, ...]:
        """The object's distinct features in canonical (sorted) order."""
        return tuple(sorted(self.features))

    def features_of_type(self, ftype: FeatureType) -> tuple[Feature, ...]:
        """Distinct features of one modality, sorted."""
        return tuple(sorted(f for f in self.features if f.ftype == ftype))

    def restricted_to(self, types: Iterable[FeatureType]) -> "MediaObject":
        """A copy keeping only the given modalities — used by the
        feature-combination ablation (Fig. 5)."""
        keep = set(types)
        bag = {f: c for f, c in self.features.items() if f.ftype in keep}
        return MediaObject(object_id=self.object_id, features=bag, timestamp=self.timestamp)

    def describe(self) -> str:
        """Human-readable one-line summary (for example scripts)."""
        parts = []
        for ftype in ALL_TYPES:
            names = [f.name for f in self.features_of_type(ftype)]
            if names:
                shown = ", ".join(names[:6]) + ("…" if len(names) > 6 else "")
                parts.append(f"{ftype.name.lower()}=[{shown}]")
        return f"{self.object_id} (t={self.timestamp}): " + "; ".join(parts)
