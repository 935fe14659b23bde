"""Contiguous corpus shards for the parallel index builds."""

from repro.core.sharding import split_shards


def test_split_covers_everything(tiny_corpus):
    shards = split_shards(list(tiny_corpus), 3)
    flattened = [o.object_id for shard in shards for o in shard]
    assert flattened == [o.object_id for o in tiny_corpus]
