"""Output checks: Definition 5's predicates and the outcome digest.

Every ``ok`` answer a workload receives is re-validated here against the
network it was answered on, independently of the query processor's own
pruning: a found answer ``(S, R)`` must satisfy

1. ``|S| = tau``;
2. the issuer is in ``S``;
3. ``S`` is connected in the social graph;
4. every pair of ``S`` has interest score ``>= gamma``;
5. every pair of ``R`` lies within road distance ``2r``;
6. every user of ``S`` matches the keywords ``R`` covers with score
   ``>= theta``;

and its reported objective must equal ``maxdist_RN(S, R)`` recomputed
from scratch. These predicates cannot tell a feasible but suboptimal
group, or a wrong "not found", from the right answer, so every run also
answers uncapped reference queries on small seeded networks through a
``GPSSNService`` and compares feasibility and objective with the
exhaustive :class:`~repro.core.baseline.BaselineProcessor`, which uses
no index and no pruning (:func:`reference_violations`). The digest
hashes the canonical (timing-free) outcome lines, so two runs of one
seed, traced or not, print the same digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, List, Tuple

from repro.core.baseline import BaselineProcessor
from repro.core.query import GPSSNQuery
from repro.core.refinement import exact_maxdist
from repro.core.scores import interest_score, match_score
from repro.datagen import uni_dataset, zipf_dataset
from repro.experiments.harness import sample_query_users
from repro.service.server import GPSSNService, ServerConfig

#: Tolerances of the float predicates, as in the integration suite.
SCORE_EPS = 1e-9
DIST_EPS = 1e-6

#: ``(tau, gamma, theta, radius)`` of the reference queries: the three
#: workloads' query shapes plus the integration suite's equivalence mix,
#: without its tau=5 cases with low gamma, which the baseline takes up
#: to seconds on.
REFERENCE_PARAMS = (
    (5, 0.5, 0.5, 2.0),
    (2, 0.5, 0.5, 1.0),
    (3, 0.5, 0.5, 2.0),
    (2, 0.2, 0.3, 2.0),
    (3, 0.3, 0.5, 2.0),
    (3, 0.1, 0.2, 3.0),
    (4, 0.2, 0.4, 4.0),
    (3, 0.5, 0.7, 1.0),
)
#: The small networks the reference queries run on (the sizes of the
#: integration suite's equivalence test).
REFERENCE_NETWORKS = (uni_dataset, zipf_dataset)
REFERENCE_SIZES = {"num_road_vertices": 90, "num_pois": 25, "num_users": 36}


def definition5_violations(network, query, answer) -> List[str]:
    """The predicates of Definition 5 that ``answer`` breaks (empty: valid).

    An answer with ``found=False`` is the legitimate "no pair qualifies"
    result and has nothing to check.
    """
    if not answer.found:
        return []
    social = network.social
    users = sorted(answer.users)
    pois = sorted(answer.pois)
    broken: List[str] = []
    if len(users) != query.tau:
        broken.append(f"|S|={len(users)} != tau={query.tau}")
    if query.query_user not in answer.users:
        broken.append(f"issuer {query.query_user} not in S")
    if not social.is_connected_subset(users):
        broken.append("S is not socially connected")
    for i, a in enumerate(users):
        for b in users[i + 1:]:
            score = interest_score(
                social.user(a).interests, social.user(b).interests
            )
            if score < query.gamma - SCORE_EPS:
                broken.append(f"interest({a},{b})={score:.6f} < gamma")
    for i, a in enumerate(pois):
        for b in pois[i + 1:]:
            dist = network.poi_poi_distance(a, b)
            if dist > 2 * query.radius + DIST_EPS:
                broken.append(f"dist(poi {a}, poi {b})={dist:.6f} > 2r")
    covered = frozenset().union(*(network.poi(p).keywords for p in pois))
    for uid in users:
        score = match_score(social.user(uid).interests, covered)
        if score < query.theta - SCORE_EPS:
            broken.append(f"match(user {uid})={score:.6f} < theta")
    expected = exact_maxdist(network, users, pois)
    if not math.isclose(
        answer.max_distance, expected, rel_tol=0.0, abs_tol=DIST_EPS
    ):
        broken.append(
            f"maxdist={answer.max_distance:.9f} != recomputed {expected:.9f}"
        )
    return broken


def outcome_line(label: str, outcome) -> str:
    """One canonical digest line: the request label plus the outcome's
    timing-free serialization."""
    return json.dumps([label, outcome.to_dict()], sort_keys=True)


def digest(lines: Iterable[str]) -> str:
    """SHA-256 over digest lines, in the order given."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def baseline_violations(query, answer, exact) -> List[str]:
    """How ``answer`` differs from the exhaustive baseline's ``exact``:
    feasibility, and the objective when both found a group."""
    if answer.found != exact.found:
        return [f"found={answer.found}, baseline found={exact.found}"]
    if answer.found and not math.isclose(
        answer.max_distance, exact.max_distance, rel_tol=0.0, abs_tol=1e-9
    ):
        return [f"maxdist={answer.max_distance:.9f}, baseline "
                f"{exact.max_distance:.9f}"]
    return []


def reference_violations(seed: int, engine: str,
                         build_args: Dict[str, object]
                         ) -> Tuple[Dict[str, int], List[str]]:
    """Answer the reference queries on networks drawn from ``seed`` and
    compare every outcome with the baseline.

    Returns ``({"queries": n, "found": k}, problems)``.
    """
    counts = {"queries": 0, "found": 0}
    problems: List[str] = []
    for make in REFERENCE_NETWORKS:
        network = make(seed=seed, **REFERENCE_SIZES)
        network.use_distance_engine(engine)
        issuers = sample_query_users(network, len(REFERENCE_PARAMS), seed=seed)
        entries = [
            (GPSSNQuery(query_user=uid, tau=tau, gamma=gamma, theta=theta,
                        radius=radius), None)
            for uid, (tau, gamma, theta, radius)
            in zip(issuers, REFERENCE_PARAMS)
        ]
        service = GPSSNService(
            network, ServerConfig(backend="serial"), build_args=build_args
        ).warm()
        try:
            outcomes = service.execute(entries, f"reference-{seed}").outcomes
        finally:
            service.close()
        baseline = BaselineProcessor(network)
        for (query, _), outcome in zip(entries, outcomes):
            label = f"reference {make.__name__} user {query.query_user} " \
                f"tau={query.tau}"
            counts["queries"] += 1
            if not outcome.ok:
                problems.append(f"{label}: status {outcome.status}")
                continue
            counts["found"] += outcome.answer.found
            exact, _ = baseline.answer(query)
            problems.extend(
                f"{label}: {problem}" for problem in
                baseline_violations(query, outcome.answer, exact)
                + definition5_violations(network, query, outcome.answer)
            )
    return counts, problems
