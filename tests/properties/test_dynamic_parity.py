"""Property: incremental maintenance ≡ from-scratch rebuild, every prefix.

The dynamic-plane contract (``repro.dynamic``): after any prefix of a
mutation stream, a :class:`ContinuousQueryRegistry` fed one mutation at
a time — widen-on-update social bounds, exact R*-tree edits, pivot-map
staleness tests, parity-exact skip predicates — serializes its standing
answers to the *same JSONL bytes* as a registry built from scratch on
the mutated network. Checked here for random streams (hypothesis) and
for every prefix of a fixed 200-op stream (the acceptance oracle; the dynamic-smoke CI job replays the
same discipline through the CLI).

Standing queries carry no ``max_groups`` cap: byte-parity is only
guaranteed for uncapped enumeration (a binding cap makes output depend
on candidate order, which admissible index slack may legally perturb).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import GPSSNQuery, GPSSNQueryProcessor, uni_dataset
from repro.dynamic import (
    ContinuousQueryRegistry,
    DynamicIndexMaintainer,
    synthesize_mutations,
)
from repro.dynamic.continuous import CONTINUOUS_PHASE
from repro.obs import ExplainRecorder
from repro.obs.registry import Recorder

BUILD = dict(num_road_pivots=2, num_social_pivots=2)


def tiny_network(seed):
    return uni_dataset(
        num_road_vertices=60, num_pois=14, num_users=20, seed=seed
    )


def standing_entries(network, gamma=0.2):
    user_ids = sorted(network.social.user_ids())
    return [
        (GPSSNQuery(query_user=uid, tau=3, gamma=gamma, theta=gamma,
                    radius=2.0),
         None)
        for uid in (user_ids[0], user_ids[len(user_ids) // 2], user_ids[-1])
    ]


def fresh_lines(network, entries, seed):
    """Outcome lines of a registry built from scratch on ``network``."""
    processor = GPSSNQueryProcessor(network, seed=seed, **BUILD)
    registry = ContinuousQueryRegistry(DynamicIndexMaintainer(processor))
    registry.subscribe(entries)
    return registry.outcome_lines()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 40), count=st.integers(1, 24))
def test_random_stream_matches_rebuild(seed, count):
    network = tiny_network(seed)
    processor = GPSSNQueryProcessor(
        network, seed=seed,
        recorder=Recorder(explain=ExplainRecorder()), **BUILD
    )
    registry = ContinuousQueryRegistry(DynamicIndexMaintainer(processor))
    entries = standing_entries(network)
    registry.subscribe(entries)

    log = synthesize_mutations(network, count, seed=seed + 1)
    report = registry.apply_batch(log)
    assert report["applied"] == count

    assert registry.outcome_lines() == fresh_lines(network, entries, seed)

    # Funnel admissibility: every skip test is accounted for — each
    # clean-query visit either pruned under a cq.* rule or survived
    # into the dirty set, never silently dropped.
    funnel = processor.recorder.explain.phase(CONTINUOUS_PHASE)
    if funnel.visited:
        assert funnel.balanced()
        assert funnel.pruned == report["skipped"]
        assert funnel.survived == report["dirty"]
        assert all(rule.startswith("cq.") for rule in funnel.rules)


@pytest.mark.parametrize("gamma", [0.2, 0.5])
@pytest.mark.parametrize("seed", [5, 7])
def test_200_op_stream_every_prefix_matches_rebuild(seed, gamma):
    """The acceptance oracle: parity after *every* prefix of 200 ops.

    Run at gamma = theta = 0.2 and at the paper default 0.5, where more
    users are hostile to the issuer. Seed 7 answers all three standing
    queries, so moved non-members meet the member-distance rule (seed 5
    answers one, and no move on its stream clears that answer's bound).
    """
    network = tiny_network(seed)
    processor = GPSSNQueryProcessor(
        network, seed=seed, recorder=Recorder(explain=ExplainRecorder()),
        **BUILD
    )
    maintainer = DynamicIndexMaintainer(processor, slack_threshold=8)
    registry = ContinuousQueryRegistry(maintainer)
    entries = standing_entries(network, gamma)
    registry.subscribe(entries)

    log = synthesize_mutations(network, 200, seed=seed + 1)
    mismatches = []
    for prefix, mutation in enumerate(log, start=1):
        registry.apply_batch([mutation])
        if registry.outcome_lines() != fresh_lines(network, entries, seed):
            mismatches.append(prefix)
    assert not mismatches, (
        f"incremental answers diverged from rebuild after prefixes "
        f"{mismatches[:10]} (of 200)"
    )
    # The low slack threshold forced compactions mid-stream, so parity
    # held across widen -> compact transitions, not just widening.
    assert maintainer.compactions > 0
    assert sum(sq.skips for sq in registry.queries) > 0
    # The issuer-interest and member-distance rules fired where they
    # can, so the parity above covered their skips too.
    rules = processor.recorder.explain.phase(CONTINUOUS_PHASE).rules
    fired = {rule for rule, stats in rules.items() if stats.pruned}
    assert "cq.issuer_interest" in fired
    if seed == 7:
        assert "cq.member_distance" in fired


@pytest.mark.parametrize("engine", ["csr"])
def test_engines_agree_after_fixed_stream(engine):
    """A fixed 30-op stream leaves the registry byte-identical to a cold
    rebuild, before and after the stream, on the ``dist_RN`` engine."""
    seed = 9
    network = tiny_network(seed)
    entries = standing_entries(network)
    processor = GPSSNQueryProcessor(network, seed=seed, **BUILD)
    assert network.use_distance_engine(engine) is network.distances.engine
    registry = ContinuousQueryRegistry(DynamicIndexMaintainer(processor))
    registry.subscribe(entries)
    assert registry.outcome_lines() == fresh_lines(
        tiny_network(seed), entries, seed
    )
    registry.apply_batch(synthesize_mutations(network, 30, seed=seed + 1))
    assert registry.outcome_lines() == fresh_lines(network, entries, seed)
