"""Persist and reload built GP-SSN processors.

Index construction is dominated by the offline precompute — Algorithm-1
pivot selection and the per-POI region sweep (one truncated Dijkstra per
POI). :func:`save_processor` captures everything that is expensive to
derive; :func:`load_processor` reconstructs a ready-to-serve processor
recomputing only the pivot SSSP/BFS tables (a handful of searches).

The store records the network version at save time; loading against a
network that has since mutated (or a different network) is rejected, the
same staleness contract the live processor enforces.

The document-level halves (:func:`processor_to_document` /
:func:`processor_from_document`) are exposed separately so the frozen
snapshot arena (:mod:`repro.io.snapshot`) can embed the same index
document next to its memmapped arrays instead of a second file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from ..core.algorithm import GPSSNQueryProcessor, PruningToggles
from ..exceptions import IndexStateError, InvalidParameterError
from ..index.pivots import RoadPivotIndex, SocialPivotIndex
from ..index.road_index import RoadIndex
from ..index.social_index import SocialIndex
from ..network import SpatialSocialNetwork
from ..obs import Recorder
from ..roadnet.engines import CHEngine

PathLike = Union[str, Path]

FORMAT_NAME = "gpssn-index-store"
FORMAT_VERSION = 1


def processor_to_document(processor: GPSSNQueryProcessor) -> dict:
    """The JSON-serializable image :func:`save_processor` writes.

    When the network runs on the ``ch`` distance engine, the contraction
    hierarchy (the other expensive offline artifact) is persisted
    alongside the R*-tree snapshots — forcing the build now if it has
    not been triggered yet, so a loaded store never re-pays
    preprocessing.
    """
    engine = processor.network.distances.engine
    engine_doc = {"name": engine.name}
    if isinstance(engine, CHEngine):
        engine_doc["ch"] = engine.snapshot()
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "network_version": processor.network.version,
        "r_min": processor.r_min,
        "r_max": processor.r_max,
        "road_index": processor.road_index.snapshot(),
        "social_index": processor.social_index.snapshot(),
        "distance_engine": engine_doc,
    }


def save_processor(path: PathLike, processor: GPSSNQueryProcessor) -> None:
    """Serialize a built processor's indexes to ``path`` (JSON)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(processor_to_document(processor), handle)


def processor_from_document(
    document: dict,
    network: SpatialSocialNetwork,
    toggles: Optional[PruningToggles] = None,
    source: str = "<index-document>",
    road_pivots: Optional[RoadPivotIndex] = None,
    build_args: Optional[dict] = None,
) -> GPSSNQueryProcessor:
    """Reconstruct a processor from a :func:`processor_to_document` image.

    Args:
        document: the parsed index document.
        network: the *same* network the document was built against
            (checked via the version counter).
        toggles: optional pruning toggles for the revived processor.
        source: where the document came from (error messages only).
        road_pivots: optional pre-built pivot index — frozen snapshots
            carry the pivot distance rows and pass a revived index here
            so no per-pivot Dijkstra runs on attach.
        build_args: optional ``_build_args`` override recorded on the
            revived processor (frozen snapshots persist the originals).

    Raises:
        InvalidParameterError: wrong document format/version.
        IndexStateError: the network mutated since the store was written.
    """
    if document.get("format") != FORMAT_NAME:
        raise InvalidParameterError(
            f"{source}: not a {FORMAT_NAME} document "
            f"(format={document.get('format')!r})"
        )
    if document.get("version") != FORMAT_VERSION:
        raise InvalidParameterError(
            f"{source}: unsupported store version "
            f"{document.get('version')!r}"
        )
    if document["network_version"] != network.version:
        raise IndexStateError(
            f"{source}: built against network version "
            f"{document['network_version']}, current is {network.version}; "
            "rebuild the indexes instead of loading the store"
        )

    engine_doc = document.get("distance_engine")
    if engine_doc is not None:
        name = engine_doc["name"]
        if name == "ch" and "ch" in engine_doc:
            network.distances.engine = CHEngine.from_snapshot(
                network.road, engine_doc["ch"]
            )
            network.distances.clear()
        else:
            network.use_distance_engine(name)

    road_snapshot = document["road_index"]
    social_snapshot = document["social_index"]
    if road_pivots is None:
        road_pivots = RoadPivotIndex(
            network.distances.engine, road_snapshot["pivots"]
        )
    social_pivots = SocialPivotIndex(
        network.social, social_snapshot["social_pivots"]
    )

    processor = GPSSNQueryProcessor.__new__(GPSSNQueryProcessor)
    processor.toggles = toggles or PruningToggles()
    processor.network = network
    processor.recorder = Recorder()
    processor.road_pivots = road_pivots
    processor.social_pivots = social_pivots
    processor.road_index = RoadIndex.from_snapshot(
        network, road_pivots, road_snapshot
    )
    processor.social_index = SocialIndex.from_snapshot(
        network, social_pivots, road_pivots, social_snapshot
    )
    processor.r_min = float(document["r_min"])
    processor.r_max = float(document["r_max"])
    processor._built_version = network.version
    # Kernel selection is runtime strategy, not persisted index state:
    # revived processors get the default vectorized path (and rebuild
    # the PairKernel lazily like a freshly constructed one).
    processor.refinement_kernel = "vector"
    processor._kernel = None
    processor._build_args = dict(build_args) if build_args else dict(
        num_road_pivots=road_pivots.num_pivots,
        num_social_pivots=social_pivots.num_pivots,
        r_min=processor.r_min, r_max=processor.r_max,
        max_entries=16, leaf_size=social_snapshot["leaf_size"], seed=0,
        distance_engine=(
            engine_doc["name"] if engine_doc is not None else None
        ),
        refinement_kernel="vector",
    )
    return processor


def load_processor(
    path: PathLike,
    network: SpatialSocialNetwork,
    toggles: Optional[PruningToggles] = None,
) -> GPSSNQueryProcessor:
    """Reconstruct a processor from :func:`save_processor` output."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return processor_from_document(
        document, network, toggles=toggles, source=str(path)
    )
