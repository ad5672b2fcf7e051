"""Page-ordered columns of an index tree and their segmented reductions.

Both indexes number their nodes breadth first (page ids), so the
children of a node hold consecutive page ids and the nodes of one depth
a contiguous page range. Their members (the POIs of I_R, the users of
I_S) take dense slots in page order, then leaf order, so the members of
a leaf hold consecutive slots.

Every node bound of Section 4.1 — the pivot intervals of Eqs. 7-8 and
11-14, the interest MBR of Eqs. 9-10 and the hashed ``sup_K`` vector of
I_R — is a min, max or OR over the node's members, so
:meth:`TreeColumns.reduce` derives it for every node at once: one
``reduceat`` over the leaves' slot ranges of the member rows, then one
per depth, deepest first, over the inner nodes' ranges of their
children's rows. Min, max and OR are exact and order-free, so the
result equals any other order of reduction bit for bit.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np


class TreeColumns:
    """Page and slot addressing of one index tree.

    Attributes:
        nodes: page id -> node.
        leaf_slots: page id -> the range of the leaf's member slots
            (empty for an inner node).
        parent: page id -> the parent's page id (``-1`` at the root).
    """

    __slots__ = ("nodes", "leaf_slots", "parent", "_leaves", "_levels")

    def _lay_out(
        self, root, num_pages: int, members_of: Callable[[object], Sequence]
    ) -> List:
        """Address the tree under ``root``; return its members by slot."""
        nodes = [root] * num_pages
        parent = [-1] * num_pages
        depth = [0] * num_pages
        stack = [root]
        while stack:
            node = stack.pop()
            nodes[node.page_id] = node
            for child in node.children:
                parent[child.page_id] = node.page_id
                depth[child.page_id] = depth[node.page_id] + 1
            stack.extend(node.children)
        members: List = []
        leaf_slots = []
        for node in nodes:
            first = len(members)
            members.extend(members_of(node))
            leaf_slots.append(range(first, len(members)))
        self.nodes = nodes
        self.leaf_slots = leaf_slots
        self.parent = parent

        leaves = [page for page, node in enumerate(nodes) if node.is_leaf]
        self._leaves = (
            np.array(leaves, dtype=np.intp),
            np.array([leaf_slots[p].start for p in leaves], dtype=np.intp),
        )
        by_depth: dict = {}
        for page, node in enumerate(nodes):
            if not node.is_leaf:
                by_depth.setdefault(depth[page], []).append(page)
        # The children of one depth's inner nodes tile a page range, in
        # the order of their parents.
        self._levels = []
        for level in sorted(by_depth, reverse=True):
            pages = by_depth[level]
            firsts = [nodes[p].children[0].page_id for p in pages]
            self._levels.append((
                np.array(pages, dtype=np.intp),
                firsts[0],
                nodes[pages[-1]].children[-1].page_id + 1,
                np.array(firsts, dtype=np.intp) - firsts[0],
            ))
        return members

    def reduce(self, ufunc: np.ufunc, rows: np.ndarray) -> np.ndarray:
        """Per page, ``ufunc`` reduced over the rows of the node's
        members (``rows`` holds one row per member slot)."""
        out = np.empty((len(self.nodes),) + rows.shape[1:], dtype=rows.dtype)
        pages, starts = self._leaves
        out[pages] = ufunc.reduceat(rows, starts, axis=0)
        for pages, lo, hi, starts in self._levels:
            out[pages] = ufunc.reduceat(out[lo:hi], starts, axis=0)
        return out
