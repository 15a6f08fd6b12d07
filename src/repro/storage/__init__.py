"""Storage engine substrate: the parts of a PBN-based XML DBMS the paper
assumes (Section 6).

* a paged heap holding the document text ("an XML DBMS stores the source
  XML data as a long string"),
* a buffer pool with LRU replacement and I/O accounting,
* a paged *value index* mapping a node's PBN number to the character
  range of its XML value (plus the node's header: Type ID and kind),
* a *type index* mapping each DataGuide type to its nodes' numbers in
  document order ("an index to quickly look up nodes of a given type"),
* statistics counters every layer reports into, which the E9 experiment
  reads instead of wall-clock disk time.
"""

from repro.storage.stats import StorageStats
from repro.storage.pages import PageManager
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.value_index import ValueEntry, ValueIndex
from repro.storage.type_index import TypeIndex
from repro.storage.store import DocumentStore
from repro.storage.persist import load_store, save_store
from repro.storage.text_index import TextIndex

__all__ = [
    "BufferPool",
    "DocumentStore",
    "HeapFile",
    "PageManager",
    "StorageStats",
    "TextIndex",
    "TypeIndex",
    "ValueEntry",
    "ValueIndex",
    "load_store",
    "save_store",
]
