"""XDR-style binary marshalling.

Two layers:

* :class:`XdrEncoder` / :class:`XdrDecoder` — the primitive wire formats of
  RFC 1014-era XDR: big-endian 4-byte words, 8-byte hypers, IEEE doubles,
  length-prefixed opaques padded to 4-byte boundaries.
* :func:`encode_value` / :func:`decode_value` — a *tagged* self-describing
  encoding of Python values built on the primitives.  This is what makes
  the paper's **dynamic marshalling** possible: a generic client that has
  just downloaded a SID can marshal parameters for a service it has never
  seen, because values carry their own structure on the wire.

The decoder runs on a :class:`memoryview` of the input: primitives are
read with precompiled ``struct`` ``unpack_from`` at an offset, and only
the leaves (opaque/string payloads) ever copy bytes — nested values no
longer re-slice the buffer at every level.  Truncated input raises
:class:`~repro.rpc.errors.XdrTruncated` with offset context instead of
surfacing short reads, and :func:`decode_value` bounds nesting depth so
adversarial payloads fail with a clean :class:`XdrError` rather than
exhausting the interpreter's recursion limit.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.net.endpoints import Address
from repro.rpc.errors import XdrError, XdrTruncated

_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1
_U32_MAX = 2**32 - 1
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
#: Cache of ``>{n}I`` structs for :meth:`XdrDecoder.unpack_u32s`.
_U32_RUNS: Dict[int, struct.Struct] = {2: struct.Struct(">2I"), 4: struct.Struct(">4I")}

#: Maximum nesting depth :func:`decode_value` accepts.  Deep enough for
#: any real SID-shaped value, shallow enough that an adversarially
#: nested payload (a list-of-list-of-... bomb) fails with an
#: :class:`XdrError` long before Python's recursion limit.
MAX_VALUE_DEPTH = 64


class XdrEncoder:
    """Accumulates XDR primitives into a byte buffer."""

    def __init__(self, chunks: Optional[List[bytes]] = None) -> None:
        self._chunks: List[bytes] = [] if chunks is None else chunks

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    def pack_u32(self, value: int) -> None:
        if not 0 <= value <= _U32_MAX:
            raise XdrError(f"u32 out of range: {value!r}")
        self._chunks.append(_U32.pack(value))

    def pack_i32(self, value: int) -> None:
        if not _I32_MIN <= value <= _I32_MAX:
            raise XdrError(f"i32 out of range: {value!r}")
        self._chunks.append(_I32.pack(value))

    def pack_i64(self, value: int) -> None:
        if not _I64_MIN <= value <= _I64_MAX:
            raise XdrError(f"i64 out of range: {value!r}")
        self._chunks.append(_I64.pack(value))

    def pack_double(self, value: float) -> None:
        self._chunks.append(_F64.pack(value))

    def pack_bool(self, value: bool) -> None:
        self.pack_u32(1 if value else 0)

    def pack_opaque(self, data: bytes) -> None:
        """Variable-length opaque: u32 length, bytes, zero pad to 4."""
        self.pack_u32(len(data))
        self._chunks.append(data)
        pad = (-len(data)) % 4
        if pad:
            self._chunks.append(b"\x00" * pad)

    def pack_string(self, text: str) -> None:
        self.pack_opaque(text.encode("utf-8"))


class XdrDecoder:
    """Consumes XDR primitives from a byte buffer without copying.

    The input is wrapped in a :class:`memoryview`; fixed-width reads go
    through ``unpack_from`` at the running offset and opaque payloads
    are materialised as ``bytes`` only at the leaf.  Every read is
    bounds-checked: running past the end raises :class:`XdrTruncated`
    naming the offending offset.
    """

    def __init__(self, data, offset: int = 0) -> None:
        self._view = memoryview(data)
        self._length = len(self._view)
        self._offset = offset

    def remaining(self) -> int:
        return self._length - self._offset

    def done(self) -> bool:
        return self._offset >= self._length

    @property
    def offset(self) -> int:
        return self._offset

    def _require(self, count: int) -> None:
        if self._offset + count > self._length:
            raise XdrTruncated(
                f"truncated XDR data at offset {self._offset}: wanted "
                f"{count} bytes, have {self._length - self._offset}"
            )

    def _take(self, count: int) -> memoryview:
        self._require(count)
        chunk = self._view[self._offset : self._offset + count]
        self._offset += count
        return chunk

    def unpack_u32(self) -> int:
        self._require(4)
        (value,) = _U32.unpack_from(self._view, self._offset)
        self._offset += 4
        return value

    def unpack_u32s(self, count: int):
        """Read ``count`` consecutive u32 words with one unpack.

        The message-frame fast path: fixed headers are several u32s in a
        row, and one precompiled multi-word unpack replaces ``count``
        bounds checks and method calls.
        """
        size = 4 * count
        self._require(size)
        fmt = _U32_RUNS.get(count)
        if fmt is None:
            fmt = _U32_RUNS[count] = struct.Struct(f">{count}I")
        values = fmt.unpack_from(self._view, self._offset)
        self._offset += size
        return values

    def unpack_i32(self) -> int:
        self._require(4)
        (value,) = _I32.unpack_from(self._view, self._offset)
        self._offset += 4
        return value

    def unpack_i64(self) -> int:
        self._require(8)
        (value,) = _I64.unpack_from(self._view, self._offset)
        self._offset += 8
        return value

    def unpack_double(self) -> float:
        self._require(8)
        (value,) = _F64.unpack_from(self._view, self._offset)
        self._offset += 8
        return value

    def unpack_bool(self) -> bool:
        value = self.unpack_u32()
        if value not in (0, 1):
            raise XdrError(f"bool must be 0 or 1, got {value}")
        return bool(value)

    def unpack_opaque(self) -> bytes:
        length = self.unpack_u32()
        data = bytes(self._take(length))
        pad = (-length) % 4
        if pad:
            padding = self._take(pad)
            if padding != b"\x00" * pad:
                raise XdrError("non-zero XDR padding")
        return data

    def unpack_string(self) -> str:
        offset = self._offset
        try:
            return self.unpack_opaque().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise XdrError(f"invalid UTF-8 at offset {offset}: {exc}")


# -- tagged generic values -----------------------------------------------

_TAG_NULL = 0
_TAG_BOOL = 1
_TAG_INT = 2
_TAG_FLOAT = 3
_TAG_STRING = 4
_TAG_BYTES = 5
_TAG_LIST = 6
_TAG_DICT = 7
_TAG_ADDRESS = 8


def encode_value(value: Any) -> bytes:
    """Encode a Python value into self-describing XDR bytes.

    Supported: ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
    :class:`~repro.net.endpoints.Address`, and (nested) lists/tuples and
    string-keyed dicts of the above.  Dict key order is preserved, so two
    structurally equal values encode identically.
    """
    encoder = XdrEncoder()
    _encode_into(value, encoder)
    return encoder.getvalue()


def encode_value_into(value: Any, chunks: List[bytes]) -> None:
    """Append the tagged encoding of ``value`` to ``chunks``.

    The compiled codec's ``any`` leaf: a self-describing sub-value
    inside an otherwise positional body.
    """
    _encode_into(value, XdrEncoder(chunks))


def _encode_into(value: Any, enc: XdrEncoder) -> None:
    if value is None:
        enc.pack_u32(_TAG_NULL)
    elif value is True or value is False:
        enc.pack_u32(_TAG_BOOL)
        enc.pack_bool(value)
    elif isinstance(value, Address):
        # Must precede the tuple check: Address is a NamedTuple.
        enc.pack_u32(_TAG_ADDRESS)
        enc.pack_string(value.host)
        enc.pack_u32(value.port)
    elif isinstance(value, int):
        enc.pack_u32(_TAG_INT)
        enc.pack_i64(value)
    elif isinstance(value, float):
        enc.pack_u32(_TAG_FLOAT)
        enc.pack_double(value)
    elif isinstance(value, str):
        enc.pack_u32(_TAG_STRING)
        enc.pack_string(value)
    elif isinstance(value, (bytes, bytearray)):
        enc.pack_u32(_TAG_BYTES)
        enc.pack_opaque(bytes(value))
    elif isinstance(value, (list, tuple)):
        enc.pack_u32(_TAG_LIST)
        enc.pack_u32(len(value))
        for item in value:
            _encode_into(item, enc)
    elif isinstance(value, dict):
        enc.pack_u32(_TAG_DICT)
        enc.pack_u32(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise XdrError(f"dict keys must be strings, got {key!r}")
            enc.pack_string(key)
            _encode_into(item, enc)
    else:
        raise XdrError(f"cannot marshal value of type {type(value).__name__}")


def decode_value(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode_value`.

    Raises :class:`~repro.rpc.errors.XdrError` on malformed or trailing
    data, and on values nested deeper than :data:`MAX_VALUE_DEPTH`.
    """
    decoder = XdrDecoder(data)
    value = _decode_from(decoder, 0)
    if not decoder.done():
        raise XdrError(f"{decoder.remaining()} trailing bytes after value")
    return value


def decode_value_at(data, offset: int) -> Tuple[Any, int]:
    """Decode one tagged value starting at ``offset``; returns ``(value, end)``.

    The same bounds as :func:`decode_value` — :data:`MAX_VALUE_DEPTH`
    and truncation checks — without requiring the value to end the
    buffer.
    """
    decoder = XdrDecoder(data, offset)
    return _decode_from(decoder, 0), decoder.offset


def _decode_from(dec: XdrDecoder, depth: int) -> Any:
    if depth > MAX_VALUE_DEPTH:
        raise XdrError(
            f"value nesting exceeds MAX_VALUE_DEPTH={MAX_VALUE_DEPTH} "
            f"at offset {dec.offset}"
        )
    tag = dec.unpack_u32()
    if tag == _TAG_NULL:
        return None
    if tag == _TAG_BOOL:
        return dec.unpack_bool()
    if tag == _TAG_INT:
        return dec.unpack_i64()
    if tag == _TAG_FLOAT:
        return dec.unpack_double()
    if tag == _TAG_STRING:
        return dec.unpack_string()
    if tag == _TAG_BYTES:
        return dec.unpack_opaque()
    if tag == _TAG_LIST:
        length = dec.unpack_u32()
        if length > dec.remaining():
            raise XdrTruncated(
                f"implausible list length {length} at offset {dec.offset}"
            )
        return [_decode_from(dec, depth + 1) for __ in range(length)]
    if tag == _TAG_DICT:
        length = dec.unpack_u32()
        if length > dec.remaining():
            raise XdrTruncated(
                f"implausible dict length {length} at offset {dec.offset}"
            )
        result: Dict[str, Any] = {}
        for __ in range(length):
            key = dec.unpack_string()
            result[key] = _decode_from(dec, depth + 1)
        return result
    if tag == _TAG_ADDRESS:
        host = dec.unpack_string()
        port = dec.unpack_u32()
        return Address(host, port)
    raise XdrError(f"unknown XDR value tag {tag}")
