"""Default experimental parameters (Table 3 of the paper).

The paper's Table 3 lists the tested value ranges with defaults in bold:

===============================  =========================  =========
Parameter                        Values                     Default
===============================  =========================  =========
interest score threshold gamma   0.2, 0.3, 0.5, 0.7, 0.9    0.5
user group size tau              2, 3, 5, 7, 10             5
number of POI objects n          3K, 5K, 10K, 15K, 30K      10K
road vertices |V(G_r)|           10K, 20K, 30K, 40K, 50K    30K
social vertices |V(G_s)|         10K, 20K, 30K, 40K, 50K    30K
matching score threshold theta   0.2, 0.3, 0.5, 0.7, 0.9    0.5
spatial radius r                 0.5, 1, 2, 3, 4            2
number of pivots l / h           2, 3, 5, 7, 10             5
===============================  =========================  =========

All benchmark drivers scale the structural sizes (n, |V(G_r)|, |V(G_s)|)
by a ``scale`` factor so the full sweep runs on a single machine; the
thresholds, radius, group size, and pivot counts are used verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from .exceptions import InvalidParameterError

#: Values swept in the paper's experiments (Table 3).
GAMMA_VALUES: Tuple[float, ...] = (0.2, 0.3, 0.5, 0.7, 0.9)
TAU_VALUES: Tuple[int, ...] = (2, 3, 5, 7, 10)
NUM_POI_VALUES: Tuple[int, ...] = (3_000, 5_000, 10_000, 15_000, 30_000)
ROAD_SIZE_VALUES: Tuple[int, ...] = (10_000, 20_000, 30_000, 40_000, 50_000)
SOCIAL_SIZE_VALUES: Tuple[int, ...] = (10_000, 20_000, 30_000, 40_000, 50_000)
THETA_VALUES: Tuple[float, ...] = (0.2, 0.3, 0.5, 0.7, 0.9)
RADIUS_VALUES: Tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0)
PIVOT_VALUES: Tuple[int, ...] = (2, 3, 5, 7, 10)

#: Side length of the square 2D data space used by the generators. The
#: spatial radius values from Table 3 (0.5 .. 4) are interpreted in the
#: same coordinate units.
DATA_SPACE_SIZE: float = 100.0

#: Default LRU capacity (source maps) of a standalone
#: :class:`~repro.roadnet.shortest_path.DistanceOracle`.
DEFAULT_DISTANCE_CACHE_SIZE: int = 1024

#: Default LRU capacity of the oracle shared through a
#: :class:`~repro.network.SpatialSocialNetwork` — larger, because every
#: index build and query phase funnels through the one shared oracle.
NETWORK_DISTANCE_CACHE_SIZE: int = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    """A full GP-SSN experiment configuration with Table-3 defaults.

    Structural sizes (``num_pois``, ``num_road_vertices``,
    ``num_social_users``) are the *paper-scale* values; apply
    :meth:`scaled` to shrink them uniformly for laptop-scale runs.
    """

    gamma: float = 0.5
    tau: int = 5
    num_pois: int = 10_000
    num_road_vertices: int = 30_000
    num_social_users: int = 30_000
    theta: float = 0.5
    radius: float = 2.0
    num_social_pivots: int = 5
    num_road_pivots: int = 5
    num_keywords: int = 5
    r_min: float = 0.5
    r_max: float = 4.0
    seed: int = 7
    #: LRU capacity of the shared distance oracle
    distance_cache_size: int = NETWORK_DISTANCE_CACHE_SIZE

    def __post_init__(self) -> None:
        if self.distance_cache_size < 1:
            raise InvalidParameterError(
                f"distance_cache_size must be >= 1, got "
                f"{self.distance_cache_size}"
            )
        if not 0.0 <= self.gamma <= 1.0 * self.num_keywords:
            raise InvalidParameterError(f"gamma out of range: {self.gamma}")
        if not 0.0 <= self.theta:
            raise InvalidParameterError(f"theta out of range: {self.theta}")
        if self.tau < 1:
            raise InvalidParameterError(f"tau must be >= 1, got {self.tau}")
        if self.radius <= 0:
            raise InvalidParameterError(f"radius must be > 0, got {self.radius}")
        if not self.r_min <= self.radius <= self.r_max:
            raise InvalidParameterError(
                f"radius {self.radius} outside [r_min={self.r_min}, r_max={self.r_max}]"
            )
        for name in ("num_pois", "num_road_vertices", "num_social_users",
                     "num_social_pivots", "num_road_pivots", "num_keywords"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(f"{name} must be >= 1")

    def scaled(self, scale: float) -> "ExperimentConfig":
        """Return a copy with structural sizes multiplied by ``scale``.

        Thresholds, radius, tau, and pivot counts are preserved; sizes are
        floored at small minimums so a tiny scale still yields a usable
        network.
        """
        if scale <= 0:
            raise InvalidParameterError(f"scale must be > 0, got {scale}")
        return replace(
            self,
            num_pois=max(20, int(self.num_pois * scale)),
            num_road_vertices=max(30, int(self.num_road_vertices * scale)),
            num_social_users=max(20, int(self.num_social_users * scale)),
        )


#: The default (bold-in-Table-3) configuration.
DEFAULT_CONFIG = ExperimentConfig()
