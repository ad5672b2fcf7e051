"""Per-query pruning-funnel accounting (the EXPLAIN ANALYZE recorder).

The span tracer answers *where time went*; this module answers *which
pruning rule killed which candidate, and by how much*. Every pruning
site in the query pipeline reports three kinds of events, keyed by a
phase name and a stable rule id (``idx.road_matching``,
``obj.social_hops``, ``pair.distance``, ...):

* ``visit(phase, n)`` — ``n`` candidates entered the phase;
* ``prune(phase, rule, n, margin)`` — ``n`` candidates were discarded
  by ``rule``; ``margin`` is the *bound tightness* of the decision (how
  far the failing bound was past its threshold, in the rule's own
  units) — the signal for threshold tuning;
* ``survive(phase, n)`` — ``n`` candidates left the phase alive.

The bookkeeping invariant, checked by the integration suite for every
phase of every entry point::

    visited == survived + sum(pruned over the phase's rules)

Two recorder implementations share the interface, mirroring
``Tracer`` / ``NullTracer``:

* :class:`ExplainRecorder` — accumulates :class:`PhaseFunnel` /
  :class:`RuleStats` objects (margins go into a log-bucket
  :class:`~repro.obs.registry.Histogram`, so a million prune events
  cost a few hundred buckets and worker funnels merge exactly);
* :class:`NullExplain` — the zero-overhead default on every
  :class:`~repro.obs.registry.Recorder`: each hook is a no-op method
  call, nothing is allocated, the hot path stays hot.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional

from .registry import Histogram

__all__ = [
    "ExplainRecorder",
    "NullExplain",
    "NULL_EXPLAIN",
    "PhaseFunnel",
    "RuleStats",
]

class RuleStats:
    """Prune tally + bound-tightness histogram for one rule in one phase."""

    __slots__ = ("rule", "pruned", "margins")

    def __init__(self, rule: str) -> None:
        self.rule = rule
        self.pruned = 0
        self.margins = Histogram()

    def as_dict(self) -> Dict[str, object]:
        entry: Dict[str, object] = {"pruned": self.pruned}
        if self.margins.count:
            entry["margin"] = {
                "count": self.margins.count,
                "mean": self.margins.mean,
                "p50": self.margins.p50,
                "p95": self.margins.p95,
                "max": self.margins.max,
            }
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuleStats({self.rule!r}, pruned={self.pruned})"


class PhaseFunnel:
    """The candidate funnel of one pipeline phase."""

    __slots__ = ("name", "visited", "survived", "rules")

    def __init__(self, name: str) -> None:
        self.name = name
        self.visited = 0
        self.survived = 0
        self.rules: Dict[str, RuleStats] = {}

    @property
    def pruned(self) -> int:
        """Total candidates pruned in this phase, over all rules."""
        return sum(stats.pruned for stats in self.rules.values())

    @property
    def prune_rate(self) -> float:
        """Fraction of visited candidates pruned (0.0 when none visited)."""
        return self.pruned / self.visited if self.visited else 0.0

    def balanced(self) -> bool:
        """The funnel invariant: visited == survived + pruned."""
        return self.visited == self.survived + self.pruned

    def as_dict(self) -> Dict[str, object]:
        return {
            "visited": self.visited,
            "survived": self.survived,
            "pruned": self.pruned,
            "rules": {
                rule: stats.as_dict() for rule, stats in self.rules.items()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhaseFunnel({self.name!r}, {self.visited} -> "
            f"{self.survived}, {len(self.rules)} rules)"
        )


class ExplainRecorder:
    """Accumulates per-phase candidate funnels across queries.

    One instance can span a whole workload: counts simply accumulate.
    For a per-query report, use a fresh recorder (the CLI does) or
    :meth:`clear` between queries.
    """

    active = True

    def __init__(self) -> None:
        self.phases: Dict[str, PhaseFunnel] = {}

    def phase(self, name: str) -> PhaseFunnel:
        """The funnel for ``name``, created on first use (insertion order
        is the pipeline order, since phases record as they run)."""
        funnel = self.phases.get(name)
        if funnel is None:
            funnel = self.phases[name] = PhaseFunnel(name)
        return funnel

    @staticmethod
    def _rule(funnel: PhaseFunnel, rule: str) -> RuleStats:
        stats = funnel.rules.get(rule)
        if stats is None:
            stats = funnel.rules[rule] = RuleStats(rule)
        return stats

    def visit(self, phase: str, count: int = 1) -> None:
        self.phase(phase).visited += count

    def survive(self, phase: str, count: int = 1) -> None:
        self.phase(phase).survived += count

    def prune(
        self,
        phase: str,
        rule: str,
        count: int = 1,
        margin: Optional[float] = None,
    ) -> None:
        """Record ``count`` candidates pruned by ``rule``.

        ``margin`` is the decision's bound tightness — by convention the
        amount by which the failing bound overshot its threshold, so it
        is >= 0 whenever the rule fired (see the ``*_margin`` helpers in
        :mod:`repro.core.pruning`). Non-finite margins (infinite hop
        bounds) are counted but not sampled.
        """
        stats = self._rule(self.phase(phase), rule)
        stats.pruned += count
        if margin is not None and math.isfinite(margin):
            stats.margins.observe(margin)

    def prune_batch(self, phase: str, rule: str, margins) -> None:
        """Record one pruned candidate per entry of ``margins``.

        The vectorized pruning kernels decide a whole batch at once;
        this folds the batch into the same state N individual
        :meth:`prune` calls would produce — the count grows by
        ``len(margins)`` and each finite margin is observed, so the
        margin histogram ends up identical to the scalar event stream.
        """
        n = len(margins)
        if not n:
            return
        stats = self._rule(self.phase(phase), rule)
        stats.pruned += n
        observe = stats.margins.observe
        for margin in margins:
            margin = float(margin)
            if math.isfinite(margin):
                observe(margin)

    def rule_counts(self) -> Dict[str, int]:
        """Total pruned per rule id, summed over phases."""
        totals: Dict[str, int] = {}
        for funnel in self.phases.values():
            for rule, stats in funnel.rules.items():
                totals[rule] = totals.get(rule, 0) + stats.pruned
        return totals

    def absorb(self, phases_doc: Dict[str, dict]) -> None:
        """Fold a plain-data funnel delta in (worker delta shipping).

        ``phases_doc`` is the shape :func:`repro.obs.delta._funnel_doc`
        captures: per phase ``visited``/``survived`` and per rule the
        ``pruned`` tally plus, when margins were sampled, their
        :class:`~repro.obs.registry.Histogram`. Tallies add exactly — the
        funnel invariant (visited == survived + pruned) is preserved by
        construction — and margin histograms merge by bucket addition.
        """
        for phase, doc in phases_doc.items():
            funnel = self.phase(phase)
            funnel.visited += int(doc.get("visited", 0))
            funnel.survived += int(doc.get("survived", 0))
            for rule, entry in (doc.get("rules") or {}).items():
                stats = self._rule(funnel, rule)
                stats.pruned += int(entry.get("pruned", 0))
                if "margins" in entry:
                    stats.margins.merge(entry["margins"])

    def iter_phases(self) -> Iterator[PhaseFunnel]:
        return iter(self.phases.values())

    def clear(self) -> None:
        self.phases = {}

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """A plain-data snapshot (JSON-serializable), phase -> funnel."""
        return {name: f.as_dict() for name, f in self.phases.items()}


class NullExplain:
    """Zero-overhead explain recorder: every hook is a no-op."""

    active = False
    phases: Dict[str, PhaseFunnel] = {}

    def phase(self, name: str) -> None:
        return None

    def visit(self, phase: str, count: int = 1) -> None:
        return None

    def survive(self, phase: str, count: int = 1) -> None:
        return None

    def prune(
        self,
        phase: str,
        rule: str,
        count: int = 1,
        margin: Optional[float] = None,
    ) -> None:
        return None

    def prune_batch(self, phase: str, rule: str, margins) -> None:
        return None

    def rule_counts(self) -> Dict[str, int]:
        return {}

    def absorb(self, phases_doc: Dict[str, dict]) -> None:
        return None

    def iter_phases(self) -> Iterator[PhaseFunnel]:
        return iter(())

    def clear(self) -> None:
        return None

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        return {}


#: The shared do-nothing instance handed to every default Recorder.
NULL_EXPLAIN = NullExplain()
