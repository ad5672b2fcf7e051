"""Funnel rule metadata for the continuous-query skip tests.

Each standing query visited per mutation either survives (gets marked
dirty and re-answered) or is pruned by one of these rules — the
dirty-region tests of :class:`repro.dynamic.continuous.
ContinuousQueryRegistry`. The entries follow the catalogue format of
:data:`repro.core.pruning.OBJECT_RULES` /
:data:`repro.core.index_pruning.INDEX_RULES` and are merged into
:data:`repro.obs.explain.RULES`.

Every rule is *parity-exact*, not merely admissible: a skipped
query's cached answer is byte-identical to what a re-evaluation would
return, because the mutation provably cannot change the value or the
discovery order of any pair that could win (see the docstrings in
:mod:`repro.dynamic.continuous` for the arguments).
"""

CONTINUOUS_RULES = {
    "cq.issuer_interest": {
        "lemma": "Def. 5 / Lemma 3 (issuer interest)",
        "figure": "-",
        "margin_unit": "gamma - Interest_Score(u, u_q)",
        "description": (
            "user move or friendship flip touching a user whose "
            "interest score with the issuer is below gamma cannot "
            "change any valid group or its enumeration order"
        ),
    },
    "cq.member_distance": {
        "lemma": "Lemma 5 (member distance bound)",
        "figure": "-",
        "margin_unit": "lb - delta",
        "description": (
            "moved non-member whose min over POIs of max(dist_RN(u_q, o), "
            "dist_RN(u, o)) strictly exceeds the current best "
            "max-distance cannot enter an improving (S, R) pair"
        ),
    },
    "cq.social_hops": {
        "lemma": "Def. 5 (tau-hop constraint)",
        "figure": "-",
        "margin_unit": "hops beyond tau - 1",
        "description": (
            "friendship flip or user move outside the issuer's "
            "(tau-1)-hop neighbourhood cannot change the candidate "
            "group set"
        ),
    },
    "cq.spatial_ball": {
        "lemma": "Lemma 5 / Eq. 6 (delta bound)",
        "figure": "-",
        "margin_unit": "dist_RN(u_q, o) - delta",
        "description": (
            "new POI strictly farther from the issuer than the current "
            "best max-distance cannot enter any improving (S, R) pair"
        ),
    },
    "cq.poi_monotone": {
        "lemma": "Lemma 5 (monotonicity of maxdist)",
        "figure": "-",
        "margin_unit": "dist_RN(u_q, o) - delta",
        "description": (
            "removed POI outside the answer region and no nearer than "
            "the current best max-distance cannot have supported the "
            "answer"
        ),
    },
}
