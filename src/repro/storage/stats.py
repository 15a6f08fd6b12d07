"""Statistics counters shared by every storage layer.

The simulated disk never sleeps, so experiments report *logical* costs:
page reads/writes, buffer hits, bytes moved, index probes, and number
comparisons.  A single :class:`StorageStats` instance threads through a
:class:`~repro.storage.store.DocumentStore` and everything it owns.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class StorageStats:
    """Mutable counter block.

    :ivar page_reads: pages fetched from the simulated disk (buffer misses).
    :ivar page_writes: pages written back to the simulated disk.
    :ivar buffer_hits: page requests satisfied by the buffer pool.
    :ivar bytes_read: characters of document text delivered to callers.
    :ivar index_probes: point lookups against any index.
    :ivar index_range_scans: range scans started against any index.
    :ivar comparisons: PBN/vPBN axis comparisons performed by evaluators.
    :ivar column_bytes: bytes of column representations built (cumulative
        over lazy builds; a rebuild after invalidation counts again).
        Divided by node count it is the benchmark's
        ``pbn.column_bytes_per_node`` row.
    """

    page_reads: int = 0
    page_writes: int = 0
    buffer_hits: int = 0
    bytes_read: int = 0
    index_probes: int = 0
    index_range_scans: int = 0
    comparisons: int = 0
    column_bytes: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """Copy the counters into a plain dict (for reports)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def __sub__(self, other: "StorageStats") -> "StorageStats":
        """Counter delta (``after - before``)."""
        result = StorageStats()
        for name in self.__dataclass_fields__:
            setattr(result, name, getattr(self, name) - getattr(other, name))
        return result

    def copy(self) -> "StorageStats":
        result = StorageStats()
        for name in self.__dataclass_fields__:
            setattr(result, name, getattr(self, name))
        return result
