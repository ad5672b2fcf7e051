"""Golden outcomes of the query processor on fixed parity cases.

``refinement_golden.json`` pins, for every case below, what
:class:`~repro.GPSSNQueryProcessor` returns and counts: the answer(s)
(users, POIs and ``repr(max_distance)``), ``groups_refined``, every
:class:`~repro.core.query.PruningCounters` field, page accesses,
candidate sizes, ``traverse.witness_checks`` and, with EXPLAIN on, the
per-phase funnel counts. The committed file was written while the
processor still carried a second, per-pair refinement path and a
per-entry road-gate path as references; both paths agreed on every
case, so the file fixes the reference outcomes that
``test_kernel_equivalence.py`` and ``test_road_gates.py`` replay.

Regenerate (only for a change that is meant to move outcomes)::

    PYTHONPATH=src python tests/properties/refinement_golden.py

The cases:

* ``tiny_grid`` / ``infeasible`` — the hand-checkable network;
* ``block_boundary`` / ``block_multiple`` — group enumerations that
  cross one or end exactly at two refinement blocks;
* ``topk`` — ``answer_topk`` with k = 2, 3 and 5;
* ``split`` — a road network with two components (inf pivots);
* ``rule_off`` — each :class:`~repro.PruningToggles` flag off;
* ``topk_delta`` — top-k queries (delta pruning suspended);
* ``churn`` — after POI insert and delete, each followed by a refreeze;
* ``grid`` / ``grid_capped`` — a fixed (uid, tau, gamma, theta, r) grid
  with EXPLAIN on and off, and with a group cap.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # tests/, for conftest's networks

from conftest import build_tiny_network  # noqa: E402

from repro import (  # noqa: E402
    GPSSNQueryProcessor,
    NetworkPosition,
    POI,
    PruningToggles,
    RoadNetwork,
    SocialNetwork,
    SpatialSocialNetwork,
    User,
    uni_dataset,
)
from repro.core.query import GPSSNQuery, PruningCounters  # noqa: E402
from repro.core.refinement import GROUP_BLOCK  # noqa: E402
from repro.dynamic import DynamicIndexMaintainer  # noqa: E402
from repro.dynamic.ops import AddPoi, RemovePoi  # noqa: E402
from repro.obs import Recorder  # noqa: E402
from repro.obs.funnel import ExplainRecorder  # noqa: E402

GOLDEN_PATH = HERE / "refinement_golden.json"
COUNTER_FIELDS = [f.name for f in dataclasses.fields(PruningCounters)]
NUM_KEYWORDS = 3


# -- networks ----------------------------------------------------------------


def grid_component(road, base, x0, side=4, spacing=2.0):
    for r in range(side):
        for c in range(side):
            road.add_vertex(base + r * side + c, x0 + c * spacing, r * spacing)
    for r in range(side):
        for c in range(side):
            vid = base + r * side + c
            if c + 1 < side:
                road.add_edge(vid, vid + 1)
            if r + 1 < side:
                road.add_edge(vid, vid + side)


def _random_position(road, edges, rng):
    u, v, length = edges[int(rng.integers(len(edges)))]
    pos = NetworkPosition(u, v, float(rng.uniform(0.0, length)))
    return road.position_coords(pos), pos


def two_component_network(seed=5, num_pois=14, num_users=18):
    """Two disconnected 4x4 grids: every pivot is unreachable from the
    POIs and users of the other component."""
    rng = np.random.default_rng(seed)
    road = RoadNetwork()
    grid_component(road, 0, 0.0)
    grid_component(road, 16, 1000.0)
    edges = sorted(road.edges())
    pois = []
    for pid in range(num_pois):
        coords, pos = _random_position(road, edges, rng)
        size = int(rng.integers(1, 3))
        keywords = rng.choice(NUM_KEYWORDS, size=size, replace=False)
        pois.append(POI(pid, coords, pos, frozenset(int(k) for k in keywords)))
    social = SocialNetwork()
    for uid in range(num_users):
        _, home = _random_position(road, edges, rng)
        social.add_user(
            User(uid, rng.dirichlet(np.ones(NUM_KEYWORDS)), home)
        )
    for uid in range(num_users):
        social.add_friendship(uid, (uid + 1) % num_users)
    for _ in range(num_users):
        a, b = (int(x) for x in rng.choice(num_users, size=2, replace=False))
        if not social.are_friends(a, b):
            social.add_friendship(a, b)
    return SpatialSocialNetwork(road, social, pois, NUM_KEYWORDS)


def uni_network():
    return uni_dataset(
        num_road_vertices=60, num_pois=20, num_users=40, seed=29
    )


def churn_network():
    return uni_dataset(
        num_road_vertices=60, num_pois=16, num_users=30, seed=14
    )


def _apply_churn(processor, stage):
    """Insert a POI and refreeze; for ``"delete"`` also remove the
    lowest-id POI and refreeze again."""
    network = processor.network
    maintainer = DynamicIndexMaintainer(processor)
    u, v, length = sorted(network.road.edges())[5]
    new_pid = max(network.poi_ids()) + 1
    maintainer.apply(
        AddPoi(poi=new_pid, u=u, v=v, offset=length / 2, keywords=(0, 2))
    )
    for pid in sorted(network.poi_ids())[:4]:
        processor.road_index.refresh_pivot_dists(pid)
    maintainer.flush()
    if stage == "delete":
        maintainer.apply(RemovePoi(poi=min(network.poi_ids())))
        maintainer.flush()


_NETWORKS = {}
_PROCESSORS = {}


def _network(name):
    if name not in _NETWORKS:
        if name == "tiny":
            network = build_tiny_network()
        elif name == "split":
            network = two_component_network()
        elif name == "uni":
            network = uni_network()
        else:
            raise ValueError(f"unknown network {name!r}")
        _NETWORKS[name] = network
    return _NETWORKS[name]


def processor_for(case):
    """The (cached) processor a case runs on; churn stages get their own
    network, mutated once."""
    key = (
        case.get("net", "uni"), case.get("explain", True),
        case.get("off"), case.get("pivots", 3), case.get("seed", 11),
        case.get("stage"),
    )
    if key not in _PROCESSORS:
        net, explain, off, pivots, seed, stage = key
        network = churn_network() if net == "churn" else _network(net)
        _PROCESSORS[key] = GPSSNQueryProcessor(
            network, num_road_pivots=pivots, num_social_pivots=pivots,
            seed=seed,
            toggles=PruningToggles(**{off: False}) if off else None,
            recorder=(
                Recorder(explain=ExplainRecorder()) if explain else Recorder()
            ),
        )
        if stage is not None:
            _apply_churn(_PROCESSORS[key], stage)
    return _PROCESSORS[key]


# -- outcomes ----------------------------------------------------------------


def funnel_snapshot(explain):
    """Per phase: ``[visited, survived, {rule: pruned}]``."""
    return {
        funnel.name: [
            funnel.visited, funnel.survived,
            {rule: stats.pruned for rule, stats in funnel.rules.items()},
        ]
        for funnel in explain.iter_phases()
    }


def outcome(processor, case):
    """Run one case and return its JSON-ready outcome."""
    uid, tau, gamma, theta, radius = case["q"]
    query = GPSSNQuery(
        query_user=uid, tau=tau, gamma=gamma, theta=theta, radius=radius
    )
    recorder = processor.recorder
    recorder.explain.clear()
    checks = recorder.metrics.counter("traverse.witness_checks")
    k = case.get("k")
    if k is None:
        answer, stats = processor.answer(query, max_groups=case.get("cap"))
        answers = [answer]
    else:
        answers, stats = processor.answer_topk(
            query, k=k, max_groups=case.get("cap")
        )
    pruning = dataclasses.asdict(stats.pruning)
    return {
        "answers": [
            [sorted(a.users), sorted(a.pois), repr(a.max_distance)]
            for a in answers
        ],
        "groups": stats.groups_refined,
        "counters": [pruning[name] for name in COUNTER_FIELDS],
        "pages": stats.page_accesses,
        "cand": [stats.candidate_users, stats.candidate_pois],
        "witness_checks": int(
            recorder.metrics.counter("traverse.witness_checks") - checks
        ),
        "funnel": (
            funnel_snapshot(recorder.explain)
            if recorder.explain.active else None
        ),
    }


# -- cases -------------------------------------------------------------------


def queries(users, thetas=(0.2, 0.5), radii=(1.0, 3.0)):
    for uid in users:
        for tau in (2, 3):
            for theta in thetas:
                for radius in radii:
                    yield [uid, tau, 0.1, theta, radius]


def _grid_queries(seed, count, taus):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        # The grid once drew an engine per query; the draw stays so the
        # stream, and with it every committed query, is unchanged.
        rng.integers(2)
        yield [
            int(rng.integers(40)), int(rng.choice(taus)),
            float(rng.choice([0.0, 0.2, 0.4])),
            float(rng.choice([0.2, 0.4, 0.6])),
            float(rng.choice([1.0, 2.0, 3.0])),
        ]


def cases():
    """Every golden case, in generation order."""
    out = []

    def add(suite, explain=True, **case):
        # Defaults (UNI network, EXPLAIN on) are left implicit.
        if not explain:
            case["explain"] = False
        out.append(dict(suite=suite, **case))

    for uid in (0, 1, 2, 4):
        for tau in (2, 3):
            for theta in (0.1, 0.3):
                add("tiny_grid", net="tiny", pivots=2, seed=3,
                    q=[uid, tau, 0.05, theta, 3.9])
    add("infeasible", net="tiny", pivots=5, seed=3, q=[0, 2, 0.05, 5.0, 2.0])
    for explain in (True, False):
        for uid in (9, 4):
            q = [uid, 4, 0.0, 0.4, 2.0]
            add("block_boundary", explain=explain, q=q)
            if not explain:
                add("block_boundary", explain=False, q=q, k=3)
        q = [1, 5, 0.0, 0.4, 2.0]
        cap = 2 * GROUP_BLOCK
        add("block_multiple", explain=explain, q=q, cap=cap)
        if not explain:
            add("block_multiple", explain=False, q=q, cap=cap, k=3)
    for k in (2, 3, 5):
        add("topk", q=[0, 3, 0.0, 0.3, 3.0], k=k)
    for q in queries(range(0, 18, 3)):
        add("split", net="split", q=q)
    for q in queries(range(0, 18, 6)):
        add("split", net="split", explain=False, q=q)
    for off in ("interest", "social_distance", "matching", "road_distance"):
        for q in queries((0, 7, 21), radii=(2.0,)):
            add("rule_off", off=off, q=q)
    for k in (2, 5):
        for net, users in (("uni", (0, 9)), ("split", (0, 9))):
            for q in queries(users, thetas=(0.3,)):
                add("topk_delta", net=net, q=q, k=k)
    for stage in ("insert", "delete"):
        for q in queries((0, 11, 23), thetas=(0.3,)):
            add("churn", net="churn", stage=stage, q=q)
    for q in _grid_queries(seed=18, count=44, taus=(2, 3, 4)):
        add("grid", q=q)
        add("grid", explain=False, q=q)
        add("grid", explain=False, q=q, k=3)
    for cap, q in zip(
        [1, 5, 50] * 6, _grid_queries(seed=19, count=16, taus=(2, 3))
    ):
        add("grid_capped", q=q, cap=cap)
    return out


def load():
    """The committed golden cases, each with its ``"out"``."""
    with open(GOLDEN_PATH, encoding="utf-8") as fp:
        return json.load(fp)["cases"]


def replay(golden, suite, where=lambda case: True):
    """Re-run the ``golden`` cases of ``suite`` that ``where`` selects,
    assert each reproduces its recorded outcome, and return them."""
    cases = [c for c in golden if c["suite"] == suite and where(c)]
    assert cases, suite
    outs = []
    for case in cases:
        got = outcome(processor_for(case), case)
        assert got == case["out"], case
        outs.append(got)
    return outs


def write(records, path=GOLDEN_PATH):
    lines = ",\n".join(
        json.dumps(record, separators=(",", ":")) for record in records
    )
    path.write_text(
        '{"counter_fields":' + json.dumps(COUNTER_FIELDS)
        + ',\n"cases":[\n' + lines + "\n]}\n"
    )


def main():
    records = []
    for case in cases():
        records.append(dict(case, out=outcome(processor_for(case), case)))
    write(records)
    print(f"wrote {len(records)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
