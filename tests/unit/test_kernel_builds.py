"""``refine.kernel_builds``: how often refinement state is rebuilt.

The processor keeps its pair kernel across POI and user mutations, so a
friend edit, a move and a POI add or remove leave the counter alone. It
rebuilds, once, when retired POI slots would outnumber live ones. An added
user is followed too.
"""

import numpy as np

from repro import GPSSNQueryProcessor, User, uni_dataset
from repro.core.refinement import PairKernel
from repro.dynamic import DynamicIndexMaintainer
from repro.dynamic.ops import (
    AddFriend,
    AddPoi,
    MoveUser,
    RemoveFriend,
    RemovePoi,
)


def builds(processor):
    return processor.recorder.metrics.counter("refine.kernel_builds")


def setup():
    network = uni_dataset(
        num_road_vertices=60, num_pois=12, num_users=20, seed=4
    )
    processor = GPSSNQueryProcessor(
        network, seed=4, num_road_pivots=2, num_social_pivots=2
    )
    return network, processor, DynamicIndexMaintainer(processor)


def fresh_pair(network):
    users = sorted(network.social.user_ids())
    for a in users:
        for b in users:
            if a < b and not network.social.are_friends(a, b):
                return a, b
    raise AssertionError("complete social graph")


def test_mutations_keep_the_kernel():
    network, processor, maintainer = setup()
    kernel = processor._pair_kernel()
    assert builds(processor) == 1
    a, b = fresh_pair(network)
    u, v, length = sorted(network.road.edges())[0]
    poi = max(network.poi_ids()) + 1
    for mutation in (
        AddFriend(a, b),
        RemoveFriend(a, b),
        MoveUser(a, u, v, length / 2),
        AddPoi(poi, u, v, length / 3, keywords=(0, 1)),
        RemovePoi(poi),
    ):
        maintainer.apply(mutation)
        assert processor._pair_kernel() is kernel, mutation.op
        assert builds(processor) == 1, mutation.op


def test_retired_slots_outnumbering_live_ones_rebuild_once():
    network, processor, maintainer = setup()
    kernel = processor._pair_kernel()
    live = network.num_pois
    pid = network.poi_ids()[0]
    poi = network.poi(pid)
    position = poi.position
    for cycle in range(1, live + 2):
        # Removing and re-adding one POI retires its slot each time.
        maintainer.apply(RemovePoi(pid))
        maintainer.apply(AddPoi(
            pid, position.u, position.v, position.offset,
            keywords=sorted(poi.keywords),
        ))
        current = processor._pair_kernel()
        if cycle <= live:
            assert current is kernel
            assert kernel.retired == cycle
            assert builds(processor) == 1
        else:
            assert current is not kernel
            assert current.retired == 0
            assert builds(processor) == 2


def test_added_user_is_followed():
    """An added user gets a ``user_positions`` entry and rows equal to a
    fresh kernel's, without a rebuild."""
    network, processor, _ = setup()
    kernel = processor._pair_kernel()
    positions, user_index = kernel.user_positions()
    donor = network.social.user(0)
    uid = max(network.social.user_ids()) + 1
    network.add_user(
        User(uid, donor.interests, network.poi(network.poi_ids()[0]).position),
        friends=[0],
    )
    assert processor._pair_kernel() is kernel
    assert builds(processor) == 1
    fresh = PairKernel(network)
    fresh_positions, fresh_index = fresh.user_positions()
    assert kernel.user_positions()[0] is positions
    assert positions.positions[user_index[uid]] == network.social.user(uid).home
    for u in network.social.user_ids():
        assert (
            positions.positions[user_index[u]]
            == fresh_positions.positions[fresh_index[u]]
        )
    assert np.array_equal(kernel.member_row(uid), fresh.member_row(uid))
