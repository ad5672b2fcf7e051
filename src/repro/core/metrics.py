"""Alternative interest-similarity metrics (the paper's future work).

Section 2 of the paper fixes ``Interest_Score`` to the dot product
(Eq. 1) and explicitly defers "other metrics such as Jaccard similarity
or Hamming distance … (e.g., pruning with lower/upper bounds of these
metrics)" to future work. This module implements that extension: four
interchangeable metrics, each with

* an exact pairwise score ``score(w_j, w_k)``, and
* a sound *upper bound* over an interest-space MBR
  (``ub_over_box(box, anchor)``), which is what the Lemma-8-style
  index-node pruning needs: a node is prunable iff its upper bound
  falls below ``gamma``.

Set metrics (Jaccard, Hamming) operate on the *support* of the interest
vector — the topics whose probability reaches ``binarize_threshold``.

Bound derivations (interest probabilities are non-negative; for a box
``[low, high]`` every user vector ``x`` satisfies ``low <= x <= high``
elementwise, hence ``supp(low) ⊆ supp(x) ⊆ supp(high)``):

* **DOT** — ``x · w <= high · w``.
* **COSINE** — ``cos(x, w) = (x · w) / (|x| |w|) <= (high · w) /
  (|low| |w|)``, clamped to 1; if ``|low| = 0`` the bound is 1.
* **JACCARD** — ``|supp(x) ∩ W| <= |supp(high) ∩ W|`` and
  ``|supp(x) ∪ W| >= |supp(low) ∪ W|``, so their ratio bounds the
  score.
* **HAMMING** similarity ``1 - diff/d`` — a topic is *forced to
  differ* when ``high_f < t`` while ``f ∈ W`` (the box cannot reach the
  threshold) or ``low_f >= t`` while ``f ∉ W``; counting forced
  disagreements lower-bounds ``diff``.
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Optional, Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..geometry import MBR


class InterestMetric(enum.Enum):
    """The supported interest-similarity metrics."""

    DOT = "dot"          # the paper's Eq. 1
    COSINE = "cosine"    # Eq. 4's normalized form
    JACCARD = "jaccard"  # on binarized topic supports
    HAMMING = "hamming"  # similarity = 1 - hamming_distance / d


def support(weights: np.ndarray, threshold: float) -> FrozenSet[int]:
    """Topics whose probability reaches ``threshold``."""
    return frozenset(int(f) for f in np.nonzero(weights >= threshold)[0])


class MetricScorer:
    """Pairwise interest scoring plus index-level upper bounds.

    One scorer instance is configured per query; the GP-SSN processor
    consults it wherever the paper's Eq. 1 appears (Lemma 3, Lemma 8,
    Corollaries 1-2, and the group-enumeration compatibility check).
    """

    def __init__(
        self,
        metric: InterestMetric = InterestMetric.DOT,
        binarize_threshold: float = 0.1,
    ) -> None:
        if not isinstance(metric, InterestMetric):
            raise InvalidParameterError(f"unknown metric {metric!r}")
        if not 0.0 < binarize_threshold <= 1.0:
            raise InvalidParameterError(
                "binarize_threshold must be in (0, 1]"
            )
        self.metric = metric
        self.binarize_threshold = binarize_threshold

    # -- exact pairwise scores ------------------------------------------------

    def score(self, w_j: np.ndarray, w_k: np.ndarray) -> float:
        """``Interest_Score`` under the configured metric."""
        w_j = np.asarray(w_j, dtype=float)
        w_k = np.asarray(w_k, dtype=float)
        if w_j.shape != w_k.shape:
            raise InvalidParameterError(
                f"interest shapes differ: {w_j.shape} vs {w_k.shape}"
            )
        if self.metric is InterestMetric.DOT:
            return float(np.dot(w_j, w_k))
        if self.metric is InterestMetric.COSINE:
            nj = float(np.linalg.norm(w_j))
            nk = float(np.linalg.norm(w_k))
            if nj == 0.0 or nk == 0.0:
                return 0.0
            return float(np.dot(w_j, w_k) / (nj * nk))
        t = self.binarize_threshold
        a = support(w_j, t)
        b = support(w_k, t)
        if self.metric is InterestMetric.JACCARD:
            union = a | b
            if not union:
                return 0.0
            return len(a & b) / len(union)
        # HAMMING similarity
        d = w_j.shape[0]
        if d == 0:
            return 0.0
        differing = len(a.symmetric_difference(b))
        return 1.0 - differing / d

    def pairwise_matrix(
        self, matrix: np.ndarray, rows: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Score matrix for a stack of interest vectors.

        Entry ``(i, j)`` scores vector ``i`` against vector ``j``. With
        ``rows`` only those vectors are scored against the whole stack:
        entry ``(r, j)`` scores ``matrix[rows[r]]`` against
        ``matrix[j]``, at ``O(len(rows) * n * d)``.

        DOT and COSINE entries are matrix products, so they may differ
        from :meth:`score` in the last bits. The set metrics count
        support overlaps with a 0/1 matrix product, which is exact for
        integers, and then apply :meth:`score`'s own division and
        subtraction, so their entries equal :meth:`score` bit for bit.
        """
        matrix = np.asarray(matrix, dtype=float)
        pick = slice(None) if rows is None else np.asarray(rows, dtype=int)
        if self.metric is InterestMetric.DOT:
            return matrix[pick] @ matrix.T
        if self.metric is InterestMetric.COSINE:
            norms = np.linalg.norm(matrix, axis=1)
            safe = np.where(norms == 0, 1.0, norms)
            normalized = matrix / safe[:, None]
            normalized[norms == 0] = 0.0
            return normalized[pick] @ normalized.T
        member = (matrix >= self.binarize_threshold).astype(float)
        shared = member[pick] @ member.T
        sizes = member.sum(axis=1)
        either = sizes[pick][:, None] + sizes[None, :] - shared
        if self.metric is InterestMetric.JACCARD:
            scores = np.zeros_like(shared)
            np.divide(shared, either, out=scores, where=either > 0)
            return scores
        # HAMMING similarity
        d = matrix.shape[1]
        if d == 0:
            return np.zeros_like(shared)
        return 1.0 - (either - shared) / d

    # -- index-level upper bounds (Lemma 8 generalization) ----------------------

    def ub_over_box(self, box: MBR, anchor: np.ndarray) -> float:
        """Upper bound of ``score(x, anchor)`` over every ``x`` in ``box``."""
        anchor = np.asarray(anchor, dtype=float)
        high = np.asarray(box.high, dtype=float)
        low = np.asarray(box.low, dtype=float)
        if self.metric is InterestMetric.DOT:
            return float(np.dot(high, anchor))
        if self.metric is InterestMetric.COSINE:
            na = float(np.linalg.norm(anchor))
            if na == 0.0:
                return 0.0
            nl = float(np.linalg.norm(low))
            if nl == 0.0:
                return 1.0
            return min(1.0, float(np.dot(high, anchor)) / (nl * na))
        t = self.binarize_threshold
        if self.metric is InterestMetric.JACCARD:
            anchor_support = support(anchor, t)
            max_support = support(high, t)
            min_support = support(low, t)
            intersection_ub = len(max_support & anchor_support)
            union_lb = len(min_support | anchor_support)
            if union_lb == 0:
                return 1.0 if intersection_ub else 0.0
            return min(1.0, intersection_ub / union_lb)
        # HAMMING similarity upper bound. A topic is forced to differ
        # when the anchor has it but the box cannot reach the threshold
        # (high < t), or the anchor lacks it but the whole box has it
        # (low >= t); everything else the box can match.
        d = anchor.shape[0]
        if d == 0:
            return 0.0
        in_anchor = anchor >= t
        forced_diff = int(np.count_nonzero(
            (in_anchor & (high < t)) | (~in_anchor & (low >= t))
        ))
        return 1.0 - forced_diff / d

    def node_prunable(self, box: MBR, anchor: np.ndarray, gamma: float) -> bool:
        """Generalized Lemma 8: prune the node when even the most
        favourable vector in the box cannot reach ``gamma``."""
        return self.ub_over_box(box, anchor) < gamma


#: The paper's default metric (Eq. 1).
DEFAULT_SCORER = MetricScorer(InterestMetric.DOT)
