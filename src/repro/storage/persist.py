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
re-derivable from the text), so the loader rebuilds the node tree from
the node table + text spans rather than re-parsing — re-parsing would
also merge text nodes left adjacent by a subtree deletion.

Opening is one read of the node table and one walk of the tree.  The
table is read in place; a row's parent is the innermost open element
whose key its key extends, and only the key's last component is decoded
(the whole key when that component is not a one-byte integer).  The
DataGuide is made from the type table, in Type ID order, so guide
numbers and zero-count types come back as saved.  Then the store's own
indexing walk (:func:`~repro.storage.store.index_tree`) types, writes
and keys the rebuilt tree, and its output must equal the image: the text
byte for byte, and a node table written from the walk byte for byte
with the stored one — every key, kind, span and Type ID (the id found
from the node's path).  The value index then rejects keys that are not
strictly increasing.  So a tampered image still fails loudly.

Version-1 images (whole-image trust, reparse + verify, dense integer
numbers only) are still read.  Strings are UTF-8 with u32 length
prefixes.
"""

from __future__ import annotations

import io
import re
import struct
import zlib
from typing import BinaryIO, Optional

from repro.dataguide.guide import DataGuide
from repro.errors import StorageError
from repro.pbn.codec import decode_key, decode_pbn, encode_key
from repro.pbn.number import Pbn
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.pages import PageManager
from repro.storage.stats import StorageStats
from repro.storage.store import DocumentStore, index_tree
from repro.storage.type_index import TypeIndex
from repro.storage.value_index import ValueIndex
from repro.xmlmodel.nodes import Attribute, Document, Element, NodeKind, Text
from repro.xmlmodel.parser import parse_document

_MAGIC = b"VPBN"
_VERSION = 2
_LENGTH = struct.Struct("<I")
_ENTRY = struct.Struct("<IBQQQQ")

_ELEMENT_CODE, _ATTRIBUTE_CODE, _TEXT_CODE = 0, 1, 2
_KIND_CODES = {
    NodeKind.ELEMENT: _ELEMENT_CODE,
    NodeKind.ATTRIBUTE: _ATTRIBUTE_CODE,
    NodeKind.TEXT: _TEXT_CODE,
}
#: An element's tag, from the ``<`` its span starts with.
_TAG = re.compile(r"<([^ >/]+)")


def _write_str(out: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    out.write(struct.pack("<I", len(data)))
    out.write(data)


def _read_str(data: BinaryIO) -> str:
    (length,) = struct.unpack("<I", _read_exact(data, 4))
    return _utf8(_read_exact(data, length))


def _utf8(blob: bytes) -> str:
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as error:
        raise StorageError("store image string is not UTF-8 (corrupted image?)") from error


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

    _write_section(out, _node_table(store.value_index.items()))


def _node_table(items) -> bytes:
    """The nodes section: the row count, then per ``(key, entry)`` pair
    the key (length-prefixed) and the entry's fields."""
    rows = [b""]
    pack_length, pack_entry = _LENGTH.pack, _ENTRY.pack
    element, attribute = NodeKind.ELEMENT, NodeKind.ATTRIBUTE
    for key, (start, end, type_id, kind, content_start, content_end) in items:
        # ``is`` tests, not a _KIND_CODES probe: hashing an enum member
        # runs Python code, once per row.
        code = (
            _ELEMENT_CODE
            if kind is element
            else _ATTRIBUTE_CODE if kind is attribute else _TEXT_CODE
        )
        rows.append(pack_length(len(key)))
        rows.append(key)
        rows.append(pack_entry(type_id, code, start, end, content_start, content_end))
    rows[0] = pack_length(len(rows) // 3)
    return b"".join(rows)


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
# version 2: tree rebuilt from the node table, then indexed by one walk
# ---------------------------------------------------------------------------


def _parse_v2(
    data: BinaryIO, page_size: int, buffer_capacity: int
) -> tuple[DocumentStore, int]:
    meta = io.BytesIO(_read_section(data, "meta"))
    uri = _read_str(meta)
    (applied_seq,) = struct.unpack("<Q", _read_exact(meta, 8))

    text = _utf8(_read_section(data, "text"))

    types = io.BytesIO(_read_section(data, "types"))
    (type_count,) = struct.unpack("<I", _read_exact(types, 4))
    guide, types_by_id = _guide_of([_read_str(types) for _ in range(type_count)])

    table = _read_section(data, "nodes")
    document = _rebuild_tree(uri, text, table)

    # Integrity: indexing the rebuilt tree must give back exactly the
    # stored text and exactly the stored node table — every key, kind,
    # span and Type ID (a node's id is found from its path) — with no
    # type outside the stored type table.
    node_by_key: dict = {}
    type_of_node: dict = {}
    indexed = index_tree(
        document.children, guide, types_by_id, node_by_key, type_of_node
    )
    if indexed.text != text:
        raise StorageError(
            "store image text does not match its node table (corrupted image?)"
        )
    if (
        len(types_by_id) != type_count
        or _node_table(zip(indexed.keys, indexed.entries)) != table
    ):
        raise StorageError(
            "store image node table does not match the rebuilt tree: a key, "
            "span or type id differs (corrupted image?)"
        )

    stats = StorageStats()
    page_manager = PageManager(page_size, stats)
    buffer_pool = BufferPool(page_manager, buffer_capacity, None)
    store = DocumentStore.from_parts(
        document=document,
        guide=guide,
        types_by_id=types_by_id,
        page_manager=page_manager,
        buffer_pool=buffer_pool,
        heap=HeapFile.store(text, page_manager, buffer_pool),
        value_index=ValueIndex.from_columns(indexed.keys, indexed.entries, stats),
        type_index=TypeIndex.from_postings(indexed.postings, stats),
        node_by_key=node_by_key,
        type_of_node=type_of_node,
        stats=stats,
    )
    return store, applied_seq


def _guide_of(saved_types: list[str]) -> tuple[DataGuide, list]:
    """The DataGuide a type table describes, types made in Type ID order
    (which is how the saved store's guide made them: preorder at load,
    then in order of first use by updates), so guide numbers and sibling
    order come back as saved — zero-count types included.  A dotted path
    is split at the last dot whose head is an earlier type (labels may
    hold dots)."""
    guide = DataGuide()
    by_dotted: dict = {}
    types_by_id = []
    for dotted in saved_types:
        path = (dotted,)
        cut = len(dotted)
        while (cut := dotted.rfind(".", 0, cut)) > 0:
            parent = by_dotted.get(dotted[:cut])
            if parent is not None:
                path = (*parent.path, dotted[cut + 1 :])
                break
        guide_type = by_dotted[dotted] = guide.ensure_type(path)
        types_by_id.append(guide_type)
    return guide, types_by_id


def _rebuild_tree(uri: str, text: str, table: bytes) -> Document:
    """The node tree that the node table and the text describe, numbered.

    The table is read in place.  Rows come in document order, so a row's
    parent is the innermost open element whose key its key extends; only
    the key's last component is decoded (a one-byte integer inline, any
    other through :func:`decode_key` of the whole key).
    """
    document = Document(uri)
    # The innermost open element (the document at first) as (key,
    # components, node), and the open elements it is inside.
    parent_key, parent_components, parent = b"", (), document
    outer: list = []
    extended = Pbn.extended
    try:
        (count,) = _LENGTH.unpack_from(table, 0)
        at = _LENGTH.size
        for _ in range(count):
            (length,) = _LENGTH.unpack_from(table, at)
            at += _LENGTH.size
            key = table[at : at + length]
            at += length
            _, code, start, end, content_start, content_end = _ENTRY.unpack_from(
                table, at
            )
            at += _ENTRY.size
            while not key.startswith(parent_key):
                parent_key, parent_components, parent = outer.pop()
            if length == len(parent_key) + 2 and key[-1] == 0 and 0 < key[-2] < 0x80:
                number = extended(parent_components, key[-2])
            else:
                number = decode_key(key)
                if number.components[:-1] != parent_components:
                    raise StorageError(
                        f"store image node {number} has no parent row (corrupted image?)"
                    )
            if code == _ELEMENT_CODE:
                tag = _TAG.match(text, start, end) if start < end <= len(text) else None
                if tag is None:
                    raise StorageError(
                        "store image element span does not start with a tag "
                        "(corrupted image?)"
                    )
                node = Element(tag.group(1))
            elif code == _ATTRIBUTE_CODE:
                name = text[start:end].partition("=")[0]
                if not name:
                    raise StorageError(
                        "store image attribute span has no name (corrupted image?)"
                    )
                node = Attribute(name, _unescape(text[content_start:content_end]))
            elif code == _TEXT_CODE:
                node = Text(_unescape(text[start:end]))
            else:
                raise StorageError(f"unknown node kind code {code} in image")
            # Appended as read: an attribute row after content comes out
            # after it, and the walk then rejects the tree.
            node.pbn = number
            node.parent = parent
            parent._children.append(node)
            if code == _ELEMENT_CODE:
                outer.append((parent_key, parent_components, parent))
                parent_key, parent_components, parent = key, number.components, node
    except struct.error as error:
        raise StorageError("truncated store image") from error
    return document


def _unescape(value: str) -> str:
    """Exact inverse of the serializer's escaping (only the four named
    escapes it ever emits)."""
    if "&" not in value:
        return value
    return (
        value.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", '"')
        .replace("&amp;", "&")
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
