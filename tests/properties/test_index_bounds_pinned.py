"""The index bounds, pinned through a maintained mutation stream.

A seeded stream of all five mutation ops runs through a
``DynamicIndexMaintainer`` on a small UNI network, with a slack
threshold high enough that nothing compacts on the way. After every
flush the sha256 of every ``RoadColumns`` and ``SocialColumns`` array
(the I_R pivot intervals and hashed ``sup_K`` rows of Eqs. 7-8, the I_S
interest MBRs and pivot intervals of Eqs. 9-14, and the member rows they
reduce) and ``bound_slack`` must equal the recorded values; at the end
``compact()`` must tighten the recorded number of bound entries, then 0.

``index_bounds_golden.json`` was written by an implementation that
stored every bound twice, on the tree nodes and in the columns; any
other way of building, widening or compacting the bounds must land on
the same bytes. Regenerate with
``PYTHONPATH=src python tests/properties/test_index_bounds_pinned.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro import GPSSNQueryProcessor, uni_dataset
from repro.dynamic import DynamicIndexMaintainer, synthesize_mutations

GOLDEN_PATH = Path(__file__).with_name("index_bounds_golden.json")

ROAD_ARRAYS = (
    "poi_pivots", "poi_finite", "node_lb", "node_ub", "node_finite",
    "sup_mask", "exact_mask", "sub_id",
)
SOCIAL_ARRAYS = (
    "user_social", "user_road", "user_interests", "node_social_lb",
    "node_social_ub", "node_road_ub", "node_low", "node_high",
)
OPS = 150
FLUSH_EVERY = 10


def _digest(array) -> str:
    array = np.asarray(array)
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _record(processor) -> dict:
    road = processor.road_index.columns
    social = processor.social_index.columns
    record = {name: _digest(getattr(road, name)) for name in ROAD_ARRAYS}
    record["road.poi_ids"] = [ap.poi_id for ap in road.aps]
    record["road.leaf_slots"] = [list(s) for s in road.leaf_slots]
    record["road.sub_groups"] = [
        [_digest(ids), _digest(topics)] for ids, topics in road.sub_groups
    ]
    record.update(
        {name: _digest(getattr(social, name)) for name in SOCIAL_ARRAYS}
    )
    record["social.user_ids"] = list(social.user_ids)
    record["bound_slack"] = processor.social_index.bound_slack
    return record


def _run() -> dict:
    network = uni_dataset(
        num_road_vertices=60, num_pois=18, num_users=40, seed=21
    )
    processor = GPSSNQueryProcessor(
        network, num_road_pivots=3, num_social_pivots=3, seed=2,
        max_entries=4, leaf_size=4,
    )
    stream = list(synthesize_mutations(network, OPS, seed=6))
    maintainer = DynamicIndexMaintainer(processor, slack_threshold=10_000)
    flushes = [_record(processor)]
    for start in range(0, len(stream), FLUSH_EVERY):
        maintainer.apply_all(stream[start:start + FLUSH_EVERY])
        maintainer.flush()
        flushes.append(_record(processor))
    social = processor.social_index
    compacted = [social.compact(), social.compact()]
    return {
        "ops": sorted({m.op for m in stream}),
        "flushes": flushes,
        "compact": compacted,
        "after_compact": _record(processor),
    }


def test_bounds_match_golden():
    want = json.loads(GOLDEN_PATH.read_text())
    got = _run()
    assert got["ops"] == want["ops"] == [
        "add_friend", "add_poi", "move_user", "remove_friend", "remove_poi"
    ]
    assert len(got["flushes"]) == len(want["flushes"])
    for step, (g, w) in enumerate(zip(got["flushes"], want["flushes"])):
        assert g == w, step
    assert got["compact"] == want["compact"]
    assert want["compact"][0] > 0 and want["compact"][1] == 0
    assert got["after_compact"] == want["after_compact"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_run(), sort_keys=True) + "\n")
