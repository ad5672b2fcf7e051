"""Zero-copy frozen snapshots: one mmap-backed arena for the whole network.

Every batch worker and every ``gpssn serve`` boot used to rebuild
:class:`~repro.roadnet.csr.CSRGraph` and both R*-tree indexes from a
pickled bundle document — O(|V| + |E|) Python work per process, which
caps experiments far below the 10^5-vertex road networks of the paper's
Figs. 10–11. A *frozen snapshot* serializes every
flat array behind the network into one versioned on-disk arena that
``np.memmap`` opens in O(1):

========================  =======  ==============================================
section                   dtype    contents
========================  =======  ==============================================
``road/ids``              int64    sorted vertex ids (n)
``road/xy``               float64  vertex coordinates (n, 2)
``road/indptr``           int64    CSR row pointers (n+1)
``road/indices``          int64    CSR neighbor indices, ascending per row (2m)
``road/weights``          float64  CSR edge lengths (2m)
``pivot/vertices``        int64    road pivot vertex ids (h)
``pivot/rows``            float64  dense pivot distance rows (h, n); inf = unreachable
``poi/ids``               int64    sorted POI ids (p)
``poi/edges``             int64    POI edge endpoints (p, 2)
``poi/offsets``           float64  POI on-edge offsets (p)
``poi/xy``                float64  POI 2D locations (p, 2)
``poi/kw_indptr``         int64    keyword row pointers (p+1)
``poi/kw_indices``        int64    sorted keyword ids per POI
``user/ids``              int64    sorted user ids (q)
``user/edges``            int64    home edge endpoints (q, 2)
``user/offsets``          float64  home on-edge offsets (q)
``user/interests``        float64  interest-vector matrix (q, d)
``social/edges``          int64    friendship pairs, sorted ``(min, max)`` (f, 2)
========================  =======  ==============================================

The file layout is ``MAGIC (8 bytes) | header length (uint64 LE) |
header JSON | zero padding | sections``. The header carries the section
table (dtype/shape/offset/crc32 per section) plus a ``meta`` document:
entity counts, build arguments, version counters, and the embedded
index document (R*-tree images and radii; the pivot rows live in the
binary sections). Every section is little-endian, C-contiguous, and
aligned to ``mmap.ALLOCATIONGRANULARITY``; nothing in the file depends on
wall-clock time, so ``freeze → open → attach → freeze`` reproduces the
file byte for byte.

Attach is O(1) in the road size: :class:`FrozenRoadNetwork` answers the
``RoadNetwork`` API straight off the memmapped arrays (binary search in
place of dict lookups, tiny per-vertex neighbor-dict cache), the CSR
engine adopts borrowed arrays, and the road pivot index revives from
the stored dense distance rows instead of re-running one full Dijkstra
per pivot. Workers pickle only ``(path, header sha256)``.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..exceptions import (
    GraphConstructionError,
    SnapshotFormatError,
    UnknownEntityError,
)
from ..geometry import Point
from ..network import SpatialSocialNetwork
from ..obs import Recorder
from ..roadnet.csr import CSRGraph, DenseDistanceView, SortedIdIndex
from ..roadnet.graph import NetworkPosition, RoadNetwork
from ..roadnet.poi import POI
from ..socialnet.graph import SocialNetwork, User

PathLike = Union[str, Path]

MAGIC = b"GPSSNAP\x01"
FORMAT_NAME = "gpssn-frozen-snapshot"
#: 2: ``meta["build_args"]`` holds exactly the processor's constructor
#: arguments, which no longer include a refinement-kernel choice; a
#: version-1 arena's would fail ``rebuild()``.
#: 3: the road-index document carries each POI's ``region_dists``, the
#: exact distances ``RoadIndex.region`` filters; a version-2 arena has
#: none.
#: 4: seeded road searches on the scipy path are one Dijkstra from a
#: virtual source, whose sums equal the reference Dijkstra's bit for bit; a
#: version-3 arena's ``region_dists`` came from a minimum over per-seed
#: searches and may differ from a fresh build in the last bit.
#: 5: the CSR engine is the only ``dist_RN`` engine: no ``ch/*``
#: sections, and neither ``meta`` nor ``build_args`` names an engine; a
#: version-4 arena's ``build_args`` carry an engine-name argument the
#: processor no longer takes.
FORMAT_VERSION = 5

#: Section (and data-area) alignment: the mmap granularity, so every
#: section view is page-aligned for the OS to share across processes.
ALIGN = mmap.ALLOCATIONGRANULARITY


def _align_up(value: int, align: int = ALIGN) -> int:
    return (value + align - 1) // align * align


# ---------------------------------------------------------------------------
# the frozen road network
# ---------------------------------------------------------------------------


class FrozenRoadNetwork(RoadNetwork):
    """A read-only ``RoadNetwork`` view over memmapped snapshot arrays.

    No per-vertex Python structures are built up front: id lookups
    binary-search the sorted id array, and the dict-of-dicts adjacency
    the reference Dijkstra wants is materialized lazily one vertex at a
    time. The base class's ``_coords``/``_adj`` dicts are deliberately
    *not* created, so a base method this class failed to override fails
    loudly (AttributeError) instead of silently answering from empty
    state. Mutation raises: frozen means frozen.
    """

    def __init__(
        self,
        ids: np.ndarray,
        xy: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        version: int,
    ) -> None:
        self._ids = ids
        self._xy = xy
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self._adj_cache: Dict[int, Dict[int, float]] = {}
        self._num_edges = len(indices) // 2
        self.version = int(version)

    def _index(self, vertex_id: int) -> int:
        pos = int(np.searchsorted(self._ids, vertex_id))
        if pos >= len(self._ids) or int(self._ids[pos]) != vertex_id:
            raise UnknownEntityError(f"unknown road vertex {vertex_id}")
        return pos

    # -- mutation is refused -------------------------------------------------

    def add_vertex(self, vertex_id: int, x: float, y: float) -> None:
        raise GraphConstructionError(
            "frozen road network is immutable; mutate a thawed copy instead"
        )

    def add_edge(self, u: int, v: int, length: Optional[float] = None) -> None:
        raise GraphConstructionError(
            "frozen road network is immutable; mutate a thawed copy instead"
        )

    # -- accessors -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._ids)

    def average_degree(self) -> float:
        if not len(self._ids):
            return 0.0
        return 2.0 * self._num_edges / len(self._ids)

    def vertices(self) -> Iterator[int]:
        return map(int, self._ids)

    def has_vertex(self, vertex_id: int) -> bool:
        pos = int(np.searchsorted(self._ids, vertex_id))
        return pos < len(self._ids) and int(self._ids[pos]) == vertex_id

    def has_edge(self, u: int, v: int) -> bool:
        try:
            self.edge_length(u, v)
            return True
        except UnknownEntityError:
            return False

    def coords(self, vertex_id: int) -> Point:
        i = self._index(vertex_id)
        return Point(float(self._xy[i, 0]), float(self._xy[i, 1]))

    def neighbors(self, vertex_id: int) -> Dict[int, float]:
        cached = self._adj_cache.get(vertex_id)
        if cached is None:
            i = self._index(vertex_id)
            lo, hi = int(self._indptr[i]), int(self._indptr[i + 1])
            nbr_ids = self._ids[self._indices[lo:hi]]
            cached = {
                int(nid): float(w)
                for nid, w in zip(nbr_ids, self._weights[lo:hi])
            }
            self._adj_cache[vertex_id] = cached
        return cached

    def edge_length(self, u: int, v: int) -> float:
        cached = self._adj_cache.get(u)
        if cached is not None:
            try:
                return cached[v]
            except KeyError:
                raise UnknownEntityError(
                    f"unknown road edge ({u}, {v})"
                ) from None
        try:
            i = self._index(u)
            j = self._index(v)
        except UnknownEntityError:
            raise UnknownEntityError(f"unknown road edge ({u}, {v})") from None
        lo, hi = int(self._indptr[i]), int(self._indptr[i + 1])
        # Canonical rows are sorted by neighbor id == internal index, so
        # the edge lookup is a binary search within the row.
        pos = lo + int(np.searchsorted(self._indices[lo:hi], j))
        if pos >= hi or int(self._indices[pos]) != j:
            raise UnknownEntityError(f"unknown road edge ({u}, {v})")
        return float(self._weights[pos])

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        ids = self._ids
        indptr = self._indptr
        indices = self._indices
        weights = self._weights
        for i in range(len(ids)):
            uid = int(ids[i])
            for j in range(int(indptr[i]), int(indptr[i + 1])):
                vid = int(ids[int(indices[j])])
                if uid < vid:
                    yield (uid, vid, float(weights[j]))

    def position_coords(self, pos: NetworkPosition) -> Point:
        length = self.edge_length(pos.u, pos.v)
        a = self.coords(pos.u)
        b = self.coords(pos.v)
        t = 0.0 if length == 0 else min(max(pos.offset / length, 0.0), 1.0)
        return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))

    def nearest_vertex(self, x: float, y: float) -> int:
        if not len(self._ids):
            raise UnknownEntityError("road network has no vertices")
        dx = self._xy[:, 0] - x
        dy = self._xy[:, 1] - y
        return int(self._ids[int(np.argmin(dx * dx + dy * dy))])

    def connected_component(self, start: int) -> List[int]:
        s = self._index(start)
        indptr = self._indptr
        indices = self._indices
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for j in range(int(indptr[u]), int(indptr[u + 1])):
                v = int(indices[j])
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        ids = self._ids
        return sorted(int(ids[i]) for i in seen)

    def is_connected(self) -> bool:
        if self.num_vertices <= 1:
            return True
        first = int(self._ids[0])
        return len(self.connected_component(first)) == self.num_vertices


# ---------------------------------------------------------------------------
# canonical arrays
# ---------------------------------------------------------------------------


def _canonical_road_arrays(road: RoadNetwork):
    """Sorted-id CSR image of ``road`` with per-row ascending neighbors.

    Sorting both axes makes the layout a pure function of the graph —
    construction order never leaks into the file — and lets the frozen
    reader binary-search ids and rows.
    """
    ids = sorted(int(v) for v in road.vertices())
    index = {vid: i for i, vid in enumerate(ids)}
    n = len(ids)
    xy = np.zeros((n, 2), dtype="<f8")
    for i, vid in enumerate(ids):
        pt = road.coords(vid)
        xy[i, 0] = pt.x
        xy[i, 1] = pt.y
    indptr = np.zeros(n + 1, dtype="<i8")
    indices: List[int] = []
    weights: List[float] = []
    for i, vid in enumerate(ids):
        row = sorted((index[int(nbr)], float(w))
                     for nbr, w in road.neighbors(vid).items())
        indptr[i + 1] = indptr[i] + len(row)
        for j, w in row:
            indices.append(j)
            weights.append(w)
    return (
        np.asarray(ids, dtype="<i8"),
        xy,
        indptr,
        np.asarray(indices, dtype="<i8"),
        np.asarray(weights, dtype="<f8"),
    )


# ---------------------------------------------------------------------------
# freeze
# ---------------------------------------------------------------------------


def freeze(
    network: SpatialSocialNetwork,
    path: PathLike,
    processor=None,
    build_args: Optional[dict] = None,
) -> dict:
    """Write ``network`` and its built indexes as a frozen arena file.

    Args:
        network: the network to freeze.
        path: destination file.
        processor: an already-built
            :class:`~repro.core.algorithm.GPSSNQueryProcessor` to embed;
            built here (with ``build_args``) when ``None``.
        build_args: processor build arguments (``seed``, pivot
            counts, ...) used when building here; the file
            records the embedded processor's own build arguments.

    Returns:
        The ``meta`` document written into the header.
    """
    if processor is None:
        from ..core.algorithm import GPSSNQueryProcessor

        processor = GPSSNQueryProcessor(
            network, recorder=Recorder(), **(build_args or {})
        )

    ids, xy, indptr, indices, weights = _canonical_road_arrays(network.road)
    n = len(ids)

    sections: Dict[str, np.ndarray] = {
        "road/ids": ids,
        "road/xy": xy,
        "road/indptr": indptr,
        "road/indices": indices,
        "road/weights": weights,
    }

    # -- road pivot distance rows -------------------------------------------
    pivots = [int(p) for p in processor.road_pivots.pivots]
    rows = np.full((len(pivots), n), np.inf, dtype="<f8")
    for k, dist_map in enumerate(processor.road_pivots._maps):
        # One vectorized remap from the engine's vertex order onto the
        # sorted canonical ids.
        vids = np.asarray(dist_map.ids, dtype=np.int64)
        rows[k, np.searchsorted(ids, vids)] = dist_map.row
    sections["pivot/vertices"] = np.asarray(pivots, dtype="<i8")
    sections["pivot/rows"] = rows

    # -- POIs ---------------------------------------------------------------
    pois = sorted(network.pois(), key=lambda p: p.poi_id)
    p = len(pois)
    poi_ids = np.asarray([int(o.poi_id) for o in pois], dtype="<i8")
    poi_edges = np.asarray(
        [[int(o.position.u), int(o.position.v)] for o in pois], dtype="<i8"
    ).reshape(p, 2)
    poi_offsets = np.asarray(
        [float(o.position.offset) for o in pois], dtype="<f8"
    )
    poi_xy = np.asarray(
        [[float(o.location.x), float(o.location.y)] for o in pois],
        dtype="<f8",
    ).reshape(p, 2)
    kw_indptr = np.zeros(p + 1, dtype="<i8")
    kw_indices: List[int] = []
    for i, o in enumerate(pois):
        kws = sorted(int(k) for k in o.keywords)
        kw_indptr[i + 1] = kw_indptr[i] + len(kws)
        kw_indices.extend(kws)
    sections.update({
        "poi/ids": poi_ids,
        "poi/edges": poi_edges,
        "poi/offsets": poi_offsets,
        "poi/xy": poi_xy,
        "poi/kw_indptr": kw_indptr,
        "poi/kw_indices": np.asarray(kw_indices, dtype="<i8"),
    })

    # -- users + friendships ------------------------------------------------
    users = sorted(network.social.users(), key=lambda u: u.user_id)
    q = len(users)
    d = int(network.num_keywords)
    user_ids = np.asarray([int(u.user_id) for u in users], dtype="<i8")
    user_edges = np.asarray(
        [[int(u.home.u), int(u.home.v)] for u in users], dtype="<i8"
    ).reshape(q, 2)
    user_offsets = np.asarray(
        [float(u.home.offset) for u in users], dtype="<f8"
    )
    interests = np.zeros((q, d), dtype="<f8")
    for i, u in enumerate(users):
        interests[i] = u.interests
    friendships = sorted({
        (min(int(u.user_id), int(f)), max(int(u.user_id), int(f)))
        for u in users
        for f in network.social.friends(u.user_id)
    })
    sections.update({
        "user/ids": user_ids,
        "user/edges": user_edges,
        "user/offsets": user_offsets,
        "user/interests": interests,
        "social/edges": np.asarray(
            friendships, dtype="<i8"
        ).reshape(len(friendships), 2),
    })

    meta = {
        "counts": {
            "vertices": n,
            "edges": int(len(indices) // 2),
            "pois": p,
            "users": q,
            "friendships": len(friendships),
        },
        "num_keywords": d,
        "build_args": dict(processor._build_args),
        "road_version": int(network.road.version),
        "network_version": int(network.version),
        "index": {
            "r_min": processor.r_min,
            "r_max": processor.r_max,
            "road_index": processor.road_index.snapshot(),
            "social_index": processor.social_index.snapshot(),
        },
    }
    _write_arena(path, meta, sections)
    return meta


def _write_arena(
    path: PathLike, meta: dict, sections: Dict[str, np.ndarray]
) -> None:
    """Lay out and write the arena file.

    The header both describes the section offsets and occupies the space
    before them, so the layout is found by fixed point: start the data
    area at one page, and grow it whenever the (re-serialized) header no
    longer fits.
    """
    prepared: List[Tuple[str, np.ndarray, int]] = []
    for name, arr in sections.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.byteorder == ">":  # pragma: no cover - BE hosts only
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        prepared.append((name, arr, zlib.crc32(arr.tobytes()) & 0xFFFFFFFF))

    data_start = ALIGN
    while True:
        table = []
        offset = data_start
        for name, arr, crc in prepared:
            offset = _align_up(offset)
            table.append({
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": int(arr.nbytes),
                "crc32": crc,
            })
            offset += arr.nbytes
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "meta": meta,
            "sections": table,
        }
        blob = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        needed = _align_up(len(MAGIC) + 8 + len(blob))
        if needed <= data_start:
            break
        data_start = needed

    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<Q", len(blob)))
        handle.write(blob)
        pos = len(MAGIC) + 8 + len(blob)
        for (name, arr, _crc), entry in zip(prepared, table):
            handle.write(b"\x00" * (entry["offset"] - pos))
            handle.write(arr.tobytes())
            pos = entry["offset"] + entry["nbytes"]


# ---------------------------------------------------------------------------
# open + attach
# ---------------------------------------------------------------------------


class FrozenSnapshot:
    """An opened arena file: memmapped sections plus the header document.

    Opening validates structure (magic, header, format, section bounds)
    but does *not* touch section bytes — that would fault every page in
    and defeat the O(1) attach. :meth:`verify` does the full checksum
    pass on demand.
    """

    def __init__(
        self,
        path: str,
        meta: dict,
        sections: Dict[str, np.ndarray],
        header_hash: str,
        bytes_mapped: int,
    ) -> None:
        self.path = path
        self.meta = meta
        self.sections = sections
        self.header_hash = header_hash
        self.bytes_mapped = bytes_mapped

    @classmethod
    def open(cls, path: PathLike) -> "FrozenSnapshot":
        path = str(path)
        try:
            size = os.path.getsize(path)
            with open(path, "rb") as handle:
                head = handle.read(len(MAGIC) + 8)
                if len(head) < len(MAGIC) + 8 or head[:len(MAGIC)] != MAGIC:
                    raise SnapshotFormatError(
                        f"{path}: not a frozen snapshot (bad magic)"
                    )
                (header_len,) = struct.unpack("<Q", head[len(MAGIC):])
                if len(MAGIC) + 8 + header_len > size:
                    raise SnapshotFormatError(
                        f"{path}: truncated header "
                        f"({header_len} bytes declared, file is {size})"
                    )
                blob = handle.read(header_len)
        except OSError as exc:
            raise SnapshotFormatError(f"{path}: {exc}") from exc
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise SnapshotFormatError(
                f"{path}: corrupted header ({exc})"
            ) from exc
        if header.get("format") != FORMAT_NAME:
            raise SnapshotFormatError(
                f"{path}: not a {FORMAT_NAME} file "
                f"(format={header.get('format')!r})"
            )
        if header.get("version") != FORMAT_VERSION:
            raise SnapshotFormatError(
                f"{path}: unsupported snapshot version "
                f"{header.get('version')!r}"
            )
        header_hash = hashlib.sha256(blob).hexdigest()
        mm = np.memmap(path, dtype=np.uint8, mode="r")
        sections: Dict[str, np.ndarray] = {}
        for entry in header.get("sections", []):
            offset, nbytes = int(entry["offset"]), int(entry["nbytes"])
            if offset + nbytes > size:
                raise SnapshotFormatError(
                    f"{path}: truncated file — section {entry['name']!r} "
                    f"ends at {offset + nbytes} but the file is {size} bytes"
                )
            arr = mm[offset:offset + nbytes].view(
                np.dtype(entry["dtype"])
            ).reshape(tuple(entry["shape"]))
            sections[entry["name"]] = arr
        return cls(
            path=path,
            meta=header.get("meta", {}),
            sections=sections,
            header_hash=header_hash,
            bytes_mapped=int(size),
        )

    @property
    def build_args(self) -> dict:
        """The embedded processor's build arguments."""
        return dict(self.meta.get("build_args") or {})

    def verify(self) -> None:
        """Checksum every section; raise :class:`SnapshotFormatError` on
        the first mismatch (this faults the whole file in — not O(1))."""
        with open(self.path, "rb") as handle:
            head = handle.read(len(MAGIC) + 8)
            (header_len,) = struct.unpack("<Q", head[len(MAGIC):])
            blob = handle.read(header_len)
        table = json.loads(blob.decode("utf-8")).get("sections", [])
        for entry in table:
            arr = self.sections[entry["name"]]
            crc = zlib.crc32(arr.tobytes()) & 0xFFFFFFFF
            if crc != int(entry["crc32"]):
                raise SnapshotFormatError(
                    f"{self.path}: section {entry['name']!r} checksum "
                    f"mismatch (stored {entry['crc32']:#010x}, "
                    f"computed {crc:#010x})"
                )

    def __repr__(self) -> str:
        counts = self.meta.get("counts", {})
        return (
            f"FrozenSnapshot(path={self.path!r}, "
            f"|V|={counts.get('vertices')}, |P|={counts.get('pois')}, "
            f"|U|={counts.get('users')}, bytes={self.bytes_mapped})"
        )

    # -- attach --------------------------------------------------------------

    def attach_network(self) -> SpatialSocialNetwork:
        """Reconstruct the :class:`SpatialSocialNetwork` over borrowed
        arrays — no validation walk, no CSR rebuild."""
        s = self.sections
        meta = self.meta
        road = FrozenRoadNetwork(
            ids=s["road/ids"],
            xy=s["road/xy"],
            indptr=s["road/indptr"],
            indices=s["road/indices"],
            weights=s["road/weights"],
            version=meta["road_version"],
        )
        social = SocialNetwork()
        user_ids = s["user/ids"]
        user_edges = s["user/edges"]
        user_offsets = s["user/offsets"]
        interests = s["user/interests"]
        for i in range(len(user_ids)):
            social.add_user(User(
                user_id=int(user_ids[i]),
                interests=interests[i],
                home=NetworkPosition(
                    int(user_edges[i, 0]),
                    int(user_edges[i, 1]),
                    float(user_offsets[i]),
                ),
            ))
        for a, b in s["social/edges"]:
            social.add_friendship(int(a), int(b))

        poi_ids = s["poi/ids"]
        poi_edges = s["poi/edges"]
        poi_offsets = s["poi/offsets"]
        poi_xy = s["poi/xy"]
        kw_indptr = s["poi/kw_indptr"]
        kw_indices = s["poi/kw_indices"]
        pois = []
        for i in range(len(poi_ids)):
            lo, hi = int(kw_indptr[i]), int(kw_indptr[i + 1])
            pois.append(POI(
                poi_id=int(poi_ids[i]),
                location=Point(float(poi_xy[i, 0]), float(poi_xy[i, 1])),
                position=NetworkPosition(
                    int(poi_edges[i, 0]),
                    int(poi_edges[i, 1]),
                    float(poi_offsets[i]),
                ),
                keywords=frozenset(int(k) for k in kw_indices[lo:hi]),
            ))

        network = SpatialSocialNetwork(
            road, social, pois,
            num_keywords=int(meta["num_keywords"]),
            validate=False,
        )
        # Reproduce the frozen-time version arithmetic exactly: the road
        # version was stamped above; the social rebuild counted its own
        # adds; whatever remains is the POI contribution.
        network._poi_version = (
            int(meta["network_version"]) - road.version - social.version
        )

        network.distances.engine.adopt_graph(CSRGraph.from_arrays(
            s["road/ids"], s["road/indptr"], s["road/indices"],
            s["road/weights"], road_version=road.version,
        ))
        return network

    def attach(self, toggles=None):
        """Attach the full engine: ``(network, processor)``.

        The processor revives from the embedded index document with the
        stored pivot distance rows standing in for the per-pivot
        Dijkstras.

        Raises:
            SnapshotFormatError: the arena carries no indexes.
        """
        from ..core.algorithm import GPSSNQueryProcessor, PruningToggles
        from ..index.pivots import RoadPivotIndex, SocialPivotIndex
        from ..index.road_index import RoadIndex
        from ..index.social_index import SocialIndex

        document = self.meta.get("index")
        if not document:
            raise SnapshotFormatError(
                f"{self.path}: frozen without indexes; refreeze it with "
                "gpssn freeze"
            )
        network = self.attach_network()
        ids = self.sections["road/ids"]
        pivot_ids = [int(p) for p in self.sections["pivot/vertices"]]
        rows = self.sections["pivot/rows"]
        index = SortedIdIndex(ids)
        road_pivots = RoadPivotIndex.from_maps(
            network.road,
            pivot_ids,
            [
                DenseDistanceView(ids, index, rows[k])
                for k in range(len(pivot_ids))
            ],
        )
        road_doc = document["road_index"]
        social_doc = document["social_index"]
        social_pivots = SocialPivotIndex(
            network.social, social_doc["social_pivots"]
        )

        processor = GPSSNQueryProcessor.__new__(GPSSNQueryProcessor)
        processor.toggles = toggles or PruningToggles()
        processor.network = network
        processor.recorder = Recorder()
        processor.road_pivots = road_pivots
        processor.social_pivots = social_pivots
        processor.road_index = RoadIndex.from_snapshot(
            network, road_pivots, road_doc
        )
        processor.social_index = SocialIndex.from_snapshot(
            network, social_pivots, road_pivots, social_doc
        )
        processor.r_min = float(document["r_min"])
        processor.r_max = float(document["r_max"])
        processor._built_version = network.version
        processor._kernel = None  # built on first use, as when fresh
        processor._build_args = self.build_args
        return network, processor
