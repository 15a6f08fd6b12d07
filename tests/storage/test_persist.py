"""Tests for store persistence (save/load/verify)."""

import io
import struct
import zlib

import pytest

from repro.errors import StorageError
from repro.pbn.codec import encode_pbn
from repro.pbn.number import Pbn
from repro.query.engine import Engine
from repro.storage.persist import (
    _ENTRY,
    _KIND_CODES,
    dump_store,
    load_store,
    load_store_ex,
    parse_store,
    parse_store_ex,
    save_store,
)
from repro.storage.store import DocumentStore
from repro.workloads.books import books_document, paper_figure2
from repro.xmlmodel.serializer import serialize


def _roundtrip(store: DocumentStore) -> DocumentStore:
    buffer = io.BytesIO()
    dump_store(store, buffer)
    buffer.seek(0)
    return parse_store(buffer)


def test_roundtrip_document_identical():
    store = DocumentStore(paper_figure2())
    loaded = _roundtrip(store)
    assert serialize(loaded.document) == serialize(store.document)
    assert loaded.document.uri == store.document.uri


def test_roundtrip_preserves_values_and_types():
    store = DocumentStore(books_document(15, seed=3))
    loaded = _roundtrip(store)
    assert loaded.value_of(Pbn(1, 3)) == store.value_of(Pbn(1, 3))
    assert [t.dotted() for t in loaded.types_by_id] == [
        t.dotted() for t in store.types_by_id
    ]
    assert len(loaded.value_index) == len(store.value_index)


def test_roundtrip_store_is_queryable():
    store = DocumentStore(books_document(10, seed=4))
    loaded = _roundtrip(store)
    engine = Engine()
    engine.attach("book.xml", loaded)
    result = engine.execute('count(doc("book.xml")//book)')
    assert result.items == [10]


def test_save_and_load_file(tmp_path):
    store = DocumentStore(paper_figure2())
    path = str(tmp_path / "books.vpbn")
    size = save_store(store, path)
    assert size > 0
    loaded = load_store(path)
    assert serialize(loaded.document) == serialize(store.document)


def test_bad_magic_rejected():
    with pytest.raises(StorageError):
        parse_store(io.BytesIO(b"NOPE" + b"\x00" * 32))


def test_bad_version_rejected():
    with pytest.raises(StorageError):
        parse_store(io.BytesIO(b"VPBN" + struct.pack("<H", 99)))


def test_truncated_image_rejected():
    store = DocumentStore(paper_figure2())
    buffer = io.BytesIO()
    dump_store(store, buffer)
    truncated = buffer.getvalue()[:-10]
    with pytest.raises(StorageError):
        parse_store(io.BytesIO(truncated))


def _section_offsets(image: bytes) -> list[tuple[int, int]]:
    """``(payload_offset, payload_length)`` for each CRC-framed v2 section."""
    offsets = []
    cursor = 6  # past magic + version
    while cursor < len(image):
        length, _crc = struct.unpack_from("<II", image, cursor)
        offsets.append((cursor + 8, length))
        cursor += 8 + length
    return offsets


def test_tampered_text_rejected_by_crc():
    """Flipping a byte of the heap text must fail the text section's
    checksum — before any node is served."""
    store = DocumentStore(paper_figure2())
    buffer = io.BytesIO()
    dump_store(store, buffer)
    image = bytearray(buffer.getvalue())
    index = image.find(b"<title>X</title>")
    assert index > 0
    image[index + 7] = ord(b"Y")
    with pytest.raises(StorageError, match="checksum"):
        parse_store(io.BytesIO(bytes(image)))


def test_tampered_text_with_fixed_crc_rejected_by_verify():
    """An adversary who also recomputes the CRC is still caught: the node
    table no longer matches the re-serialized tree."""
    store = DocumentStore(paper_figure2())
    buffer = io.BytesIO()
    dump_store(store, buffer)
    image = bytearray(buffer.getvalue())
    sections = _section_offsets(bytes(image))
    text_offset, text_length = sections[1]
    index = image.find(b"<title>X</title>")
    assert text_offset <= index < text_offset + text_length
    # Swap the two title texts' wrapping tags structurally: turn <title>
    # into <titlf> (same length, well-formed, but a different type table
    # and node spans than the image claims).
    image[index + 5] = ord(b"f")
    end = image.find(b"</title>", index)
    image[end + 6] = ord(b"f")
    struct.pack_into(
        "<I",
        image,
        text_offset - 4,
        zlib.crc32(bytes(image[text_offset : text_offset + text_length])),
    )
    with pytest.raises(StorageError):
        parse_store(io.BytesIO(bytes(image)))


def test_every_section_crc_is_checked():
    """Corrupting any one section's payload trips its own checksum."""
    store = DocumentStore(paper_figure2())
    buffer = io.BytesIO()
    dump_store(store, buffer)
    image = buffer.getvalue()
    for payload_offset, payload_length in _section_offsets(image):
        if payload_length == 0:
            continue
        corrupt = bytearray(image)
        corrupt[payload_offset] ^= 0x40
        with pytest.raises(StorageError, match="checksum"):
            parse_store(io.BytesIO(bytes(corrupt)))


def test_applied_seq_roundtrip():
    store = DocumentStore(paper_figure2())
    buffer = io.BytesIO()
    dump_store(store, buffer, applied_seq=41)
    buffer.seek(0)
    _loaded, seq = parse_store_ex(buffer)
    assert seq == 41


def test_save_load_ex_file(tmp_path):
    store = DocumentStore(paper_figure2())
    path = str(tmp_path / "books.vpbn")
    save_store(store, path, applied_seq=7)
    loaded, seq = load_store_ex(path)
    assert seq == 7
    assert serialize(loaded.document) == serialize(store.document)


def _dump_v1(store: DocumentStore) -> bytes:
    """The version-1 writer, reproduced so v1 compatibility stays tested
    after the writer moved to version 2."""
    out = io.BytesIO()

    def write_str(text: str) -> None:
        data = text.encode("utf-8")
        out.write(struct.pack("<I", len(data)))
        out.write(data)

    out.write(b"VPBN")
    out.write(struct.pack("<H", 1))
    write_str(store.document.uri)
    write_str(store.heap.read_all())
    out.write(struct.pack("<I", len(store.types_by_id)))
    for guide_type in store.types_by_id:
        write_str(guide_type.dotted())
    entries = list(store.value_index.subtree_all())
    out.write(struct.pack("<I", len(entries)))
    for number, entry in entries:
        blob = encode_pbn(number)
        out.write(struct.pack("<I", len(blob)))
        out.write(blob)
        out.write(
            _ENTRY.pack(
                entry.type_id,
                _KIND_CODES[entry.kind],
                entry.start,
                entry.end,
                entry.content_start,
                entry.content_end,
            )
        )
    return out.getvalue()


def test_v1_image_still_loads():
    store = DocumentStore(books_document(8, seed=9))
    image = _dump_v1(store)
    loaded, seq = parse_store_ex(io.BytesIO(image))
    assert seq == 0
    assert serialize(loaded.document) == serialize(store.document)
    assert [t.dotted() for t in loaded.types_by_id] == [
        t.dotted() for t in store.types_by_id
    ]


def test_v1_tampered_text_rejected():
    """The original v1 tampering scenario: shift offsets by swapping text
    for a longer entity and fix the length prefix."""
    store = DocumentStore(paper_figure2())
    image = bytearray(_dump_v1(store))
    index = image.find(b"<title>X</title>")
    assert index > 0
    image[index + 7 : index + 8] = b"&amp;"
    uri_len = struct.unpack_from("<I", image, 6)[0]
    text_len_offset = 6 + 4 + uri_len
    old_len = struct.unpack_from("<I", image, text_len_offset)[0]
    struct.pack_into("<I", image, text_len_offset, old_len + 4)
    with pytest.raises(StorageError):
        parse_store(io.BytesIO(bytes(image)))


def test_unicode_text_roundtrip():
    from repro.xmlmodel.parser import parse_document

    document = parse_document("<a>héllo — ünïcode ✓</a>", "u.xml")
    store = DocumentStore(document)
    loaded = _roundtrip(store)
    assert loaded.document.root.text() == "héllo — ünïcode ✓"


def test_deep_document_loads_saves_and_reopens(tmp_path):
    depth = 600
    engine = Engine()
    store = engine.load("deep.xml", "<a>" * depth + "x" + "</a>" * depth)
    path = str(tmp_path / "deep.vpbn")
    engine.save("deep.xml", path)
    reopened = Engine()
    reopened.open(path)
    assert reopened.execute('count(doc("deep.xml")//a)').items == [depth]
    assert reopened.execute('doc("deep.xml")').to_xml() == store.heap.read_all()


# Tampered node tables, CRC recomputed: each must fail the loader's
# checks, not its checksums.


def _rows(image: bytes) -> list[list]:
    """The node table of a v2 image as ``[key, type_id, kind, start, end,
    content_start, content_end]`` rows."""
    offset, _ = _section_offsets(image)[3]
    (count,) = struct.unpack_from("<I", image, offset)
    at = offset + 4
    rows = []
    for _ in range(count):
        (length,) = struct.unpack_from("<I", image, at)
        key = image[at + 4 : at + 4 + length]
        at += 4 + length
        rows.append([key, *_ENTRY.unpack_from(image, at)])
        at += _ENTRY.size
    return rows


def _with_rows(image: bytes, rows: list[list]) -> bytes:
    """``image`` with its node table replaced by ``rows`` (CRC fixed)."""
    offset, length = _section_offsets(image)[3]
    table = [struct.pack("<I", len(rows))]
    for key, *entry in rows:
        table.append(struct.pack("<I", len(key)) + key + _ENTRY.pack(*entry))
    payload = b"".join(table)
    frame = struct.pack("<II", len(payload), zlib.crc32(payload))
    return image[: offset - 8] + frame + payload + image[offset + length :]


def _image(text: str = '<a x="1"><b>t</b><c>u</c><d/></a>') -> bytes:
    from repro.xmlmodel.parser import parse_document

    buffer = io.BytesIO()
    dump_store(DocumentStore(parse_document(text, "t.xml")), buffer)
    return buffer.getvalue()


def test_rewritten_node_table_still_loads():
    image = _image()
    assert _with_rows(image, _rows(image)) == image
    parse_store(io.BytesIO(image))


def test_swapped_type_ids_rejected():
    image = _image()
    rows = _rows(image)
    b, c = rows[2], rows[4]  # <b> and <c>: elements of different types
    assert b[1] != c[1]
    b[1], c[1] = c[1], b[1]
    with pytest.raises(StorageError):
        parse_store(io.BytesIO(_with_rows(image, rows)))


def test_span_shifted_by_one_character_rejected():
    image = _image()
    rows = _rows(image)
    rows[3][3:7] = [offset + 1 for offset in rows[3][3:7]]  # the text "t"
    with pytest.raises(StorageError):
        parse_store(io.BytesIO(_with_rows(image, rows)))


def test_dropped_parent_row_rejected():
    image = _image()
    rows = _rows(image)
    del rows[2]  # <b>, whose text row stays
    with pytest.raises(StorageError):
        parse_store(io.BytesIO(_with_rows(image, rows)))


def test_rows_in_swapped_key_order_rejected():
    image = _image("<a><b/><c/></a>")
    rows = _rows(image)
    rows[1], rows[2] = rows[2], rows[1]
    with pytest.raises(StorageError):
        parse_store(io.BytesIO(_with_rows(image, rows)))


def test_rows_in_swapped_key_order_with_matching_spans_rejected():
    """Swapped rows that also carry each other's spans describe the text
    exactly; only the key order gives them away."""
    image = _image("<a><b/><b/></a>")
    rows = _rows(image)
    rows[1][0], rows[2][0] = rows[2][0], rows[1][0]
    with pytest.raises(StorageError):
        parse_store(io.BytesIO(_with_rows(image, rows)))


@pytest.mark.parametrize("row", [0, 1, 3])  # an element, an attribute, a text
def test_out_of_range_span_rejected(row):
    image = _image()
    rows = _rows(image)
    rows[row][3] = (1 << 64) - 2  # start, far past the text
    with pytest.raises(StorageError):
        parse_store(io.BytesIO(_with_rows(image, rows)))


def test_text_section_that_is_not_utf8_rejected():
    image = bytearray(_image())
    offset, length = _section_offsets(bytes(image))[1]
    image[offset] = 0xFF  # never valid in UTF-8
    payload = bytes(image[offset : offset + length])
    struct.pack_into("<I", image, offset - 4, zlib.crc32(payload))
    with pytest.raises(StorageError, match="UTF-8"):
        parse_store(io.BytesIO(bytes(image)))
