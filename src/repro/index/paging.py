"""Page-ordered columns of an index tree and their segmented reductions.

Each index tree is held only here, as plain per-page lists built from
its skeleton (the ``tree`` form of the index snapshots: nested
``{"children": [...]}`` with member-id lists at the leaves). Pages are
numbered by one breadth-first pass, so the children of a page hold
consecutive page ids and the pages of one depth a contiguous range.
The members (the POIs of I_R, the users of I_S) take dense slots in
page order, then leaf order, so the members of a leaf hold consecutive
slots. No node objects exist.

Every node bound of Section 4.1 — the pivot intervals of Eqs. 7-8 and
11-14, the interest MBR of Eqs. 9-10 and the hashed ``sup_K`` vector of
I_R — is a min, max or OR over the node's members, so
:meth:`TreeColumns.reduce` derives it for every page at once: one
``reduceat`` over the leaves' slot ranges of the member rows, then one
per depth, deepest first, over the inner pages' ranges of their
children's rows. Min, max and OR are exact and order-free, so the
result equals any other order of reduction bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


class TreeColumns:
    """The shape of one index tree, by page id.

    Attributes:
        children: page -> the range of its child pages (empty for a
            leaf).
        leaf_slots: page -> the range of the leaf's member slots (empty
            for an inner page).
        size: page -> the number of members under the page.
        parent: page -> the parent's page id (``-1`` at the root).
        height: the number of levels down to the deepest leaf.
    """

    __slots__ = (
        "children", "leaf_slots", "size", "parent", "height",
        "_leaves", "_levels",
    )

    def _lay_out(self, skeleton: dict, members: str) -> List[int]:
        """Number the pages of ``skeleton`` breadth first (page 0 is the
        root); return the ids under the leaves' ``members`` key, by
        slot."""
        nodes = [skeleton]
        parent = [-1]
        depth = [0]
        children = []
        leaf_slots = []
        ids: List[int] = []
        for page, node in enumerate(nodes):  # ``nodes`` grows as it goes
            kids = node.get("children", ())
            first = len(nodes)
            nodes.extend(kids)
            parent.extend([page] * len(kids))
            depth.extend([depth[page] + 1] * len(kids))
            children.append(range(first, len(nodes)))
            start = len(ids)
            ids.extend(node.get(members, ()))
            leaf_slots.append(range(start, len(ids)))
        size = [len(slots) for slots in leaf_slots]
        for page in range(len(nodes) - 1, 0, -1):
            size[parent[page]] += size[page]
        self.children = children
        self.leaf_slots = leaf_slots
        self.size = size
        self.parent = parent
        self.height = max(depth) + 1

        leaves = [page for page, kids in enumerate(children) if not kids]
        self._leaves = (
            np.array(leaves, dtype=np.intp),
            np.array([leaf_slots[p].start for p in leaves], dtype=np.intp),
        )
        by_depth: dict = {}
        for page, kids in enumerate(children):
            if kids:
                by_depth.setdefault(depth[page], []).append(page)
        # The children of one depth's inner pages tile a page range, in
        # the order of their parents.
        self._levels = []
        for level in sorted(by_depth, reverse=True):
            pages = by_depth[level]
            firsts = [children[p].start for p in pages]
            self._levels.append((
                np.array(pages, dtype=np.intp),
                firsts[0],
                children[pages[-1]].stop,
                np.array(firsts, dtype=np.intp) - firsts[0],
            ))
        return ids

    @property
    def num_pages(self) -> int:
        return len(self.children)

    def skeleton(self, members: str, ids: Sequence[int], page: int = 0) -> dict:
        """The tree under ``page`` in skeleton form, each leaf listing
        ``ids`` (member ids by slot) under ``members``."""
        kids = self.children[page]
        if kids:
            return {"children": [self.skeleton(members, ids, c) for c in kids]}
        return {members: [ids[slot] for slot in self.leaf_slots[page]]}

    def reduce(self, ufunc: np.ufunc, rows: np.ndarray) -> np.ndarray:
        """Per page, ``ufunc`` reduced over the rows of the page's
        members (``rows`` holds one row per member slot)."""
        out = np.empty(
            (len(self.children),) + rows.shape[1:], dtype=rows.dtype
        )
        pages, starts = self._leaves
        out[pages] = ufunc.reduceat(rows, starts, axis=0)
        for pages, lo, hi, starts in self._levels:
            out[pages] = ufunc.reduceat(out[lo:hi], starts, axis=0)
        return out
