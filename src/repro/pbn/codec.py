"""Compact, order-preserving binary encoding of PBN numbers.

The paper notes (Section 4.2, citing its reference [11]) that PBN numbers
can be packed into few bits.  This codec implements a self-delimiting,
order-preserving component encoding so that for any two numbers ``p``, ``q``:

* ``encode_pbn(p) < encode_pbn(q)`` (bytewise) iff ``p`` precedes ``q`` in
  document order, and
* ``encode_pbn(p)`` is a byte-prefix of ``encode_pbn(q)`` iff ``p`` is a
  component-prefix of ``q`` (i.e. an ancestor-or-self),

which means encoded numbers can serve directly as sorted-index keys (the
storage engine's value index uses them) while keeping every axis predicate a
cheap bytes comparison.

Encoding per component ``c`` (1-based):

* ``1 <= c <= 128``: one byte ``c - 1`` (``0x00``–``0x7F``).
* larger: a marker byte ``0x80 + (n - 1)`` where ``n`` is the number of
  big-endian payload bytes of ``c - 129``, followed by those bytes.  Marker
  bytes sort above all single-byte encodings and by payload length, and the
  payload comparison finishes the job, so ordering is preserved for all
  components up to ``2^(8*112) + 128`` (far beyond any real fan-out).
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import NumberingError
from repro.pbn.number import Pbn

_SINGLE_MAX = 128  # components 1..128 fit in one byte
_MARKER_BASE = 0x80


def encode_pbn(number: Pbn) -> bytes:
    """Encode a PBN number to its order-preserving byte string."""
    out = bytearray()
    for component in number.components:
        if component <= _SINGLE_MAX:
            out.append(component - 1)
        else:
            value = component - _SINGLE_MAX - 1
            payload = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
            if len(payload) > 0x7F:
                raise NumberingError(f"component {component} too large to encode")
            out.append(_MARKER_BASE + len(payload) - 1)
            out.extend(payload)
    return bytes(out)


def decode_pbn(data: bytes) -> Pbn:
    """Decode a byte string produced by :func:`encode_pbn`.

    :raises NumberingError: on truncated or empty input.
    """
    components: list[int] = []
    index = 0
    length = len(data)
    while index < length:
        first = data[index]
        index += 1
        if first < _MARKER_BASE:
            components.append(first + 1)
        else:
            payload_length = first - _MARKER_BASE + 1
            if index + payload_length > length:
                raise NumberingError("truncated PBN encoding")
            value = int.from_bytes(data[index : index + payload_length], "big")
            index += payload_length
            components.append(value + _SINGLE_MAX + 1)
    if not components:
        raise NumberingError("empty PBN encoding")
    return Pbn(*components)


# ---------------------------------------------------------------------------
# key codec: rational-capable keys for the value index
# ---------------------------------------------------------------------------
#
# ``encode_pbn`` packs consecutive integers with no byte gaps — optimal for
# a loaded document, but with nothing *between* ``enc(2)`` and ``enc(3)``
# there is nowhere for a minted sibling ``5/2`` to sort.  ``encode_key`` is
# the update-capable variant: every component is terminated explicitly, and
# a dyadic fraction part is emitted as its binary expansion, one byte per
# bit.  The same two invariants hold (bytewise order == document order;
# ancestor == byte prefix), now over mixed int/Fraction components, at the
# cost of one terminator byte per component.  ``encode_pbn`` stays untouched
# for version-1 store images and the space experiment.
#
# Per component ``c`` with integer part ``n = floor(c)`` and dyadic
# fraction part ``f = c - n``::
#
#     enc_int(n + 1)                 (the +1 admits n == 0, e.g. c == 1/4)
#     one byte per bit of f:         0x01 for 0, 0x02 for 1
#     terminator 0x00
#
# The bit bytes sit strictly between the terminator and nothing else, so a
# fraction compares after its own integer (``2 < 5/2``) and bit-prefix
# fractions order correctly (``1/2 < 3/4``).  Fraction parts must be dyadic
# (finite binary expansion) — exactly what the careting fold in
# :mod:`repro.updates.careting` produces.

_BIT_BYTES = (0x01, 0x02)
_TERMINATOR = 0x00


def _encode_int(out: bytearray, value: int) -> None:
    """The ``encode_pbn`` per-component scheme, shared by both codecs."""
    if value <= _SINGLE_MAX:
        out.append(value - 1)
    else:
        payload_value = value - _SINGLE_MAX - 1
        payload = payload_value.to_bytes(
            max(1, (payload_value.bit_length() + 7) // 8), "big"
        )
        if len(payload) > 0x7F:
            raise NumberingError(f"component {value} too large to encode")
        out.append(_MARKER_BASE + len(payload) - 1)
        out.extend(payload)


#: ``encode_key`` of each integer component that fits one byte, terminator
#: included — the common case, looked up instead of built.
_SMALL_KEYS = tuple(bytes((value, _TERMINATOR)) for value in range(_SINGLE_MAX))


def encode_key(number: Pbn) -> bytes:
    """Encode a (possibly rational) PBN number to an order-preserving,
    ancestor-prefix-preserving byte key."""
    return encode_components(number.components)


def encode_components(components) -> bytes:
    """:func:`encode_key` of the number with these components."""
    parts = []
    for component in components:
        if type(component) is int and 0 <= component < _SINGLE_MAX:
            parts.append(_SMALL_KEYS[component])
        else:
            parts.append(component_key(component))
    return b"".join(parts)


def component_key(component) -> bytes:
    """The key encoding of one component: a number's key is its parent's
    key followed by this."""
    if type(component) is int and 0 <= component < _SINGLE_MAX + 256:
        if component < _SINGLE_MAX:
            return _SMALL_KEYS[component]
        # A one-byte payload: marker, component - 128, terminator.
        return bytes((_MARKER_BASE, component - _SINGLE_MAX, _TERMINATOR))
    out = bytearray()
    if isinstance(component, int):
        _encode_int(out, component + 1)
    else:
        numerator, denominator = component.numerator, component.denominator
        if denominator & (denominator - 1):
            raise NumberingError(
                f"component {component} is not dyadic and cannot be a key"
            )
        integer = numerator // denominator
        _encode_int(out, integer + 1)
        # Binary expansion of the fraction part, most significant first.
        remainder = numerator - integer * denominator
        width = denominator.bit_length() - 1
        for shift in range(width - 1, -1, -1):
            out.append(_BIT_BYTES[(remainder >> shift) & 1])
    out.append(_TERMINATOR)
    return bytes(out)


def decode_key(data: bytes) -> Pbn:
    """Decode a byte string produced by :func:`encode_key`.

    :raises NumberingError: on truncated or empty input.
    """
    components: list = []
    index = 0
    length = len(data)
    while index < length:
        first = data[index]
        index += 1
        if first < _MARKER_BASE:
            integer = first + 1
        else:
            payload_length = first - _MARKER_BASE + 1
            if index + payload_length > length:
                raise NumberingError("truncated PBN key encoding")
            integer = (
                int.from_bytes(data[index : index + payload_length], "big")
                + _SINGLE_MAX
                + 1
            )
            index += payload_length
        integer -= 1  # undo the +1 shift that admits a zero integer part
        numerator = 0
        bits = 0
        while index < length and data[index] != _TERMINATOR:
            byte = data[index]
            if byte not in _BIT_BYTES:
                raise NumberingError("malformed PBN key encoding")
            numerator = numerator * 2 + (byte - 0x01)
            bits += 1
            index += 1
        if index >= length:
            raise NumberingError("truncated PBN key encoding")
        index += 1  # consume the terminator
        if bits:
            components.append(Fraction(numerator + (integer << bits), 1 << bits))
        else:
            components.append(integer)
    if not components:
        raise NumberingError("empty PBN key encoding")
    return Pbn(*components)


def encoded_size(number: Pbn) -> int:
    """Size in bytes of the encoding, without materializing it."""
    size = 0
    for component in number.components:
        if component <= _SINGLE_MAX:
            size += 1
        else:
            value = component - _SINGLE_MAX - 1
            size += 1 + max(1, (value.bit_length() + 7) // 8)
    return size
