"""Result and statistics types shared by DB-LSH and every baseline.

A query returns a :class:`QueryResult`: the neighbor list (ascending by
distance) plus a :class:`QueryStats` record of the *work* performed —
distance computations, window queries, index node visits, radius rounds.
The paper's efficiency claims are about this work, so the counters are
first-class citizens rather than debug extras.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple


class Neighbor(NamedTuple):
    """One returned neighbor: dataset row id and exact Euclidean distance.

    A named tuple rather than a dataclass: queries construct ``k`` of
    these apiece, and tuple construction is several times cheaper while
    keeping the same field access, ``point_id, dist = neighbor``
    unpacking, equality and immutability semantics.
    """

    id: int
    distance: float


@dataclass
class QueryStats:
    """Hardware-independent work counters for a single query."""

    candidates_verified: int = 0
    distance_computations: int = 0
    hash_evaluations: int = 0
    window_queries: int = 0
    index_node_visits: int = 0
    rounds: int = 0
    final_radius: float = 0.0
    terminated_by: str = ""
    #: Wall time until the query's answer was final.  DB-LSH runs a batch
    #: in lockstep blocks, so this is measured from the start of the
    #: query's block: it includes the work of the block's other queries.
    elapsed_seconds: float = 0.0

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another query's counters (used for averaging)."""
        self.candidates_verified += other.candidates_verified
        self.distance_computations += other.distance_computations
        self.hash_evaluations += other.hash_evaluations
        self.window_queries += other.window_queries
        self.index_node_visits += other.index_node_visits
        self.rounds += other.rounds
        self.elapsed_seconds += other.elapsed_seconds


@dataclass
class QueryResult:
    """Neighbors (ascending distance) plus the work that produced them."""

    neighbors: List[Neighbor] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)

    @classmethod
    def from_heap(cls, heap, stats: QueryStats) -> "QueryResult":
        """Package a bounded max-heap's retained candidates as a result.

        ``heap`` is any object whose ``items()`` yields ``(distance, id)``
        pairs in ascending-distance order (:class:`repro.utils.heaps.BoundedMaxHeap`).
        """
        return cls(
            neighbors=[Neighbor(int(i), float(d)) for d, i in heap.items()],
            stats=stats,
        )

    def __len__(self) -> int:
        return len(self.neighbors)

    def __iter__(self) -> Iterator[Neighbor]:
        return iter(self.neighbors)

    @property
    def ids(self) -> List[int]:
        """Neighbor ids in ascending-distance order."""
        return [n.id for n in self.neighbors]

    @property
    def distances(self) -> List[float]:
        """Neighbor distances in ascending order."""
        return [n.distance for n in self.neighbors]

    def is_empty(self) -> bool:
        return not self.neighbors
