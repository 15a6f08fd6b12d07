"""Saving and loading document stores.

A stored document round-trips through a compact binary image::

    save_store(store, path)
    store = load_store(path)

Version-2 format (little-endian; the current writer)::

    magic "VPBN" | version u16 == 2
    four sections, each framed  length u32 | crc32 u32 | payload:
      meta:  uri str, applied_seq u64     (WAL sequence the image covers)
      text:  the heap contents (UTF-8)
      types: count u32, then per type: path as dotted str
      nodes: count u32, then per node:
          encoded key (bytes, rational-capable codec), type id u32,
          kind u8, start u64, end u64, content_start u64, content_end u64

Every section carries its own CRC32, checked *before* the payload is
parsed, so a corrupt or truncated image fails with
:class:`~repro.errors.StorageError` before any node is served.  Numbers
are authoritative in the image (minted rational components are not
re-derivable from the text), so the loader reconstructs the node tree
from the node table + text spans rather than re-parsing — re-parsing
would also merge text nodes left adjacent by a subtree deletion.  After
reconstruction the loader re-serializes the tree and verifies text and
spans byte-for-byte, so a tampered image still fails loudly.

Version-1 images (whole-image trust, reparse + verify, dense integer
numbers only) are still read.  Strings are UTF-8 with u32 length
prefixes.
"""

from __future__ import annotations

import io
import struct
import zlib
from typing import BinaryIO, Optional

from repro.dataguide.build import build_dataguide
from repro.errors import StorageError
from repro.pbn.codec import decode_key, decode_pbn, encode_key
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.pages import PageManager
from repro.storage.stats import StorageStats
from repro.storage.store import DocumentStore, _serialize_with_spans
from repro.storage.type_index import TypeIndex
from repro.storage.value_index import ValueEntry, ValueIndex
from repro.xmlmodel.nodes import Attribute, Document, Element, NodeKind, Text
from repro.xmlmodel.parser import parse_document

_MAGIC = b"VPBN"
_VERSION = 2
_ENTRY = struct.Struct("<IBQQQQ")

_KIND_CODES = {
    NodeKind.ELEMENT: 0,
    NodeKind.ATTRIBUTE: 1,
    NodeKind.TEXT: 2,
}
_KIND_FROM_CODE = {code: kind for kind, code in _KIND_CODES.items()}


def _write_str(out: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    out.write(struct.pack("<I", len(data)))
    out.write(data)


def _read_str(data: BinaryIO) -> str:
    (length,) = struct.unpack("<I", _read_exact(data, 4))
    return _read_exact(data, length).decode("utf-8")


def _write_bytes(out: BinaryIO, blob: bytes) -> None:
    out.write(struct.pack("<I", len(blob)))
    out.write(blob)


def _read_bytes(data: BinaryIO) -> bytes:
    (length,) = struct.unpack("<I", _read_exact(data, 4))
    return _read_exact(data, length)


def _read_exact(data: BinaryIO, count: int) -> bytes:
    blob = data.read(count)
    if len(blob) != count:
        raise StorageError("truncated store image")
    return blob


def _write_section(out: BinaryIO, payload: bytes) -> None:
    out.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
    out.write(payload)


def _read_section(data: BinaryIO, name: str) -> bytes:
    length, crc = struct.unpack("<II", _read_exact(data, 8))
    payload = _read_exact(data, length)
    if zlib.crc32(payload) != crc:
        raise StorageError(
            f"store image section {name!r} fails its checksum (corrupted image)"
        )
    return payload


def dump_store(store: DocumentStore, out: BinaryIO, applied_seq: int = 0) -> None:
    """Write ``store``'s version-2 image to a binary stream.

    :param applied_seq: the WAL sequence number this image covers (the
        durable store's checkpoint counter; 0 for ad-hoc saves).
    """
    out.write(_MAGIC)
    out.write(struct.pack("<H", _VERSION))

    meta = io.BytesIO()
    _write_str(meta, store.document.uri)
    meta.write(struct.pack("<Q", applied_seq))
    _write_section(out, meta.getvalue())

    _write_section(out, store.heap.read_all().encode("utf-8"))

    types = io.BytesIO()
    types.write(struct.pack("<I", len(store.types_by_id)))
    for guide_type in store.types_by_id:
        _write_str(types, guide_type.dotted())
    _write_section(out, types.getvalue())

    nodes = io.BytesIO()
    nodes.write(struct.pack("<I", len(store.value_index)))
    for key, entry in store.value_index.items():
        _write_bytes(nodes, key)
        nodes.write(
            _ENTRY.pack(
                entry.type_id,
                _KIND_CODES[entry.kind],
                entry.start,
                entry.end,
                entry.content_start,
                entry.content_end,
            )
        )
    _write_section(out, nodes.getvalue())


def save_store(store: DocumentStore, path: str, applied_seq: int = 0) -> int:
    """Save to ``path``; returns the image size in bytes."""
    buffer = io.BytesIO()
    dump_store(store, buffer, applied_seq=applied_seq)
    image = buffer.getvalue()
    with open(path, "wb") as handle:
        handle.write(image)
    return len(image)


def parse_store(
    data: BinaryIO, page_size: int = 4096, buffer_capacity: int = 64
) -> DocumentStore:
    """Rebuild a store from a binary stream (version 1 or 2).

    :raises StorageError: on bad magic, version, checksum, or any
        mismatch between the stored node table and the rebuilt indexes.
    """
    store, _ = parse_store_ex(
        data, page_size=page_size, buffer_capacity=buffer_capacity
    )
    return store


def parse_store_ex(
    data: BinaryIO, page_size: int = 4096, buffer_capacity: int = 64
) -> tuple[DocumentStore, int]:
    """Like :func:`parse_store` but also returns the image's
    ``applied_seq`` (0 for version-1 images)."""
    if _read_exact(data, 4) != _MAGIC:
        raise StorageError("not a vPBN store image (bad magic)")
    (version,) = struct.unpack("<H", _read_exact(data, 2))
    if version == 1:
        return _parse_v1(data, page_size, buffer_capacity), 0
    if version == 2:
        return _parse_v2(data, page_size, buffer_capacity)
    raise StorageError(f"unsupported store image version {version}")


def peek_uri(path: str) -> str:
    """The document uri of the image at ``path``, without rebuilding the
    store — the sharded catalog routes an image to its owning shard
    before paying the load.

    :raises StorageError: on bad magic, version, or (v2) meta checksum.
    """
    with open(path, "rb") as handle:
        if _read_exact(handle, 4) != _MAGIC:
            raise StorageError("not a vPBN store image (bad magic)")
        (version,) = struct.unpack("<H", _read_exact(handle, 2))
        if version == 1:
            return _read_str(handle)
        if version == 2:
            return _read_str(io.BytesIO(_read_section(handle, "meta")))
        raise StorageError(f"unsupported store image version {version}")


def load_store(
    path: str, page_size: int = 4096, buffer_capacity: int = 64
) -> DocumentStore:
    """Load a store image from ``path``."""
    with open(path, "rb") as handle:
        return parse_store(handle, page_size=page_size, buffer_capacity=buffer_capacity)


def load_store_ex(
    path: str, page_size: int = 4096, buffer_capacity: int = 64
) -> tuple[DocumentStore, int]:
    """Load a store image and its ``applied_seq`` from ``path``."""
    with open(path, "rb") as handle:
        return parse_store_ex(
            handle, page_size=page_size, buffer_capacity=buffer_capacity
        )


# ---------------------------------------------------------------------------
# version 2: tree reconstructed from the node table, sections checksummed
# ---------------------------------------------------------------------------


def _parse_v2(
    data: BinaryIO, page_size: int, buffer_capacity: int
) -> tuple[DocumentStore, int]:
    meta = io.BytesIO(_read_section(data, "meta"))
    uri = _read_str(meta)
    (applied_seq,) = struct.unpack("<Q", _read_exact(meta, 8))

    text = _read_section(data, "text").decode("utf-8")

    types = io.BytesIO(_read_section(data, "types"))
    (type_count,) = struct.unpack("<I", _read_exact(types, 4))
    saved_types = [_read_str(types) for _ in range(type_count)]

    nodes = io.BytesIO(_read_section(data, "nodes"))
    (node_count,) = struct.unpack("<I", _read_exact(nodes, 4))
    keys = []
    rows = []
    for _ in range(node_count):
        keys.append(_read_bytes(nodes))
        number = decode_key(keys[-1])
        type_id, kind_code, start, end, content_start, content_end = _ENTRY.unpack(
            _read_exact(nodes, _ENTRY.size)
        )
        kind = _KIND_FROM_CODE.get(kind_code)
        if kind is None:
            raise StorageError(f"unknown node kind code {kind_code} in image")
        rows.append((number, type_id, kind, start, end, content_start, content_end))

    document = _reconstruct_tree(uri, text, rows)
    store = _assemble_v2(
        document, text, saved_types, keys, rows, page_size, buffer_capacity
    )
    return store, applied_seq


def _reconstruct_tree(uri: str, text: str, rows: list) -> Document:
    """Rebuild the node tree from saved numbers, kinds, and text spans.

    Rows arrive in document order (the node table is a value-index scan),
    so every parent precedes its children and plain ``append`` preserves
    sibling order.
    """
    document = Document(uri)
    by_components: dict[tuple, object] = {}
    for number, _type_id, kind, start, end, content_start, content_end in rows:
        if kind is NodeKind.ELEMENT:
            node = Element(_element_tag(text, start, end))
        elif kind is NodeKind.ATTRIBUTE:
            name = text[start:end].partition("=")[0]
            node = Attribute(name, _unescape(text[content_start:content_end]))
        else:
            node = Text(_unescape(text[start:end]))
        node.pbn = number
        components = number.components
        if len(components) == 1:
            parent = document
        else:
            parent = by_components.get(components[:-1])
            if parent is None:
                raise StorageError(
                    f"store image node {number} has no parent row (corrupted image?)"
                )
        parent.append(node)
        by_components[components] = node
    return document


def _element_tag(text: str, start: int, end: int) -> str:
    if start >= end or text[start] != "<":
        raise StorageError("store image node span is not an element (corrupted image?)")
    index = start + 1
    while index < end and text[index] not in (" ", ">", "/"):
        index += 1
    tag = text[start + 1 : index]
    if not tag:
        raise StorageError("store image element has an empty tag (corrupted image?)")
    return tag


def _unescape(value: str) -> str:
    """Exact inverse of the serializer's escaping (only the four named
    escapes it ever emits)."""
    return (
        value.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", '"')
        .replace("&amp;", "&")
    )


def _assemble_v2(
    document: Document,
    text: str,
    saved_types: list[str],
    keys: list[bytes],
    rows: list,
    page_size: int,
    buffer_capacity: int,
) -> DocumentStore:
    # Integrity: the reconstructed tree must re-serialize to exactly the
    # stored text with exactly the stored spans.
    rebuilt_text, records = _serialize_with_spans(document)
    if rebuilt_text != text:
        raise StorageError(
            "store image text does not match its node table (corrupted image?)"
        )
    if len(records) != len(rows):
        raise StorageError("store image node count mismatch (corrupted image?)")

    guide = build_dataguide(document)
    by_dotted = {
        ".".join(guide_type.path): guide_type for guide_type in guide.iter_types()
    }
    types_by_id = []
    for dotted in saved_types:
        guide_type = by_dotted.get(dotted)
        if guide_type is None:
            # A derived store can carry a zero-count type (every instance
            # deleted).  It keeps its Type ID across checkpoints, so
            # recreate it; node rows are still verified per-row below.
            guide_type = guide.ensure_type(tuple(dotted.split(".")))
        types_by_id.append(guide_type)

    stats = StorageStats()
    page_manager = PageManager(page_size, stats)
    buffer_pool = BufferPool(page_manager, buffer_capacity, None)
    heap = HeapFile.store(text, page_manager, buffer_pool)

    node_by_key: dict = {}
    type_of_node: dict = {}
    type_index = TypeIndex(stats)
    entries: list[ValueEntry] = []
    id_of_type = {guide_type: i for i, guide_type in enumerate(types_by_id)}
    for record, row in zip(records, rows):
        node, start, end, content_start, content_end = record
        number, type_id, kind, r_start, r_end, r_cstart, r_cend = row
        if (
            node.pbn.components != number.components
            or node.kind is not kind
            or (start, end, content_start, content_end)
            != (r_start, r_end, r_cstart, r_cend)
        ):
            raise StorageError(
                f"store image entry for {number} does not match the "
                "reconstructed tree (corrupted image?)"
            )
        guide_type = guide.type_of(node)
        if type_id != id_of_type.get(guide_type):
            raise StorageError(
                f"store image type id for {number} does not match its path "
                "(corrupted image?)"
            )
        entries.append(
            ValueEntry(start, end, type_id, kind, content_start, content_end)
        )
        type_index.append(type_id, node.pbn)
        node_by_key[node.pbn.components] = node
        type_of_node[node] = type_id

    return DocumentStore.from_parts(
        document=document,
        guide=guide,
        types_by_id=types_by_id,
        page_manager=page_manager,
        buffer_pool=buffer_pool,
        heap=heap,
        value_index=ValueIndex.from_items(zip(keys, entries), stats),
        type_index=type_index,
        node_by_key=node_by_key,
        type_of_node=type_of_node,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# version 1: reparse the stored text, verify against the node table
# ---------------------------------------------------------------------------


def _parse_v1(
    data: BinaryIO, page_size: int, buffer_capacity: int
) -> DocumentStore:
    uri = _read_str(data)
    text = _read_str(data)
    (type_count,) = struct.unpack("<I", _read_exact(data, 4))
    saved_types = [_read_str(data) for _ in range(type_count)]
    (node_count,) = struct.unpack("<I", _read_exact(data, 4))
    saved_nodes = []
    for _ in range(node_count):
        number = decode_pbn(_read_bytes(data))
        type_id, kind_code, start, end, content_start, content_end = _ENTRY.unpack(
            _read_exact(data, _ENTRY.size)
        )
        saved_nodes.append(
            (number, type_id, kind_code, start, end, content_start, content_end)
        )

    document = parse_document(text, uri) if text else _empty_document(uri)
    store = DocumentStore(
        document, page_size=page_size, buffer_capacity=buffer_capacity
    )
    _verify_v1(store, saved_types, saved_nodes)
    return store


def _empty_document(uri: str):
    return Document(uri)


def _verify_v1(store: DocumentStore, saved_types: list[str], saved_nodes: list) -> None:
    rebuilt_types = [t.dotted() for t in store.types_by_id]
    if rebuilt_types != saved_types:
        raise StorageError(
            "store image type table does not match the rebuilt DataGuide "
            "(corrupted image?)"
        )
    if len(store.value_index) != len(saved_nodes):
        raise StorageError("store image node count mismatch (corrupted image?)")
    for (key, entry), saved in zip(store.value_index.items(), saved_nodes):
        rebuilt = (
            key,
            entry.type_id,
            _KIND_CODES[entry.kind],
            entry.start,
            entry.end,
            entry.content_start,
            entry.content_end,
        )
        if rebuilt != (encode_key(saved[0]), *saved[1:]):
            raise StorageError(
                f"store image entry for {saved[0]} does not match the "
                "rebuilt index (corrupted image?)"
            )
