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

The tagged codec is one kernel per direction (:func:`_put`, :func:`_get`)
with a flat dispatch — on the exact type when encoding, on the tag word
when decoding.  Scalars are packed and read in place with precompiled
``struct`` formats (a tag and its payload in one ``pack``), and only
containers recurse, once per nesting level; no primitive costs a method
call.  Truncated input raises :class:`~repro.rpc.errors.XdrTruncated`
with offset context instead of surfacing short reads, and
:func:`decode_value` bounds nesting depth so adversarial payloads fail
with a clean :class:`XdrError` rather than exhausting the interpreter's
recursion limit.  The compiled codec (:mod:`repro.rpc.codec`) calls the
same kernels for its ``any`` leaves.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterable, List, Optional, Tuple

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

# The tagged kernel packs a tag together with its fixed-width payload in
# one ``pack`` (the bytes are the same as two separate words would be).
_TAG_WORD = struct.Struct(">II")  # tag + u32 (bool, length or count)
_TAG_I64 = struct.Struct(">Iq")
_TAG_F64 = struct.Struct(">Id")
_NULL = _U32.pack(_TAG_NULL)
_TRUE = _TAG_WORD.pack(_TAG_BOOL, 1)
_FALSE = _TAG_WORD.pack(_TAG_BOOL, 0)
#: Zero padding after an opaque of length ``n``, indexed by ``n & 3``.
_PADDING = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")


def encode_value(value: Any) -> bytes:
    """Encode a Python value into self-describing XDR bytes.

    Supported: ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
    :class:`~repro.net.endpoints.Address`, and (nested) lists/tuples and
    string-keyed dicts of the above.  Dict key order is preserved, so two
    structurally equal values encode identically.
    """
    chunks: List[bytes] = []
    _put((value,), chunks, False)
    return b"".join(chunks)


def encode_value_into(value: Any, chunks: List[bytes]) -> None:
    """Append the tagged encoding of ``value`` to ``chunks``.

    The compiled codec's ``any`` leaf: a self-describing sub-value
    inside an otherwise positional body.
    """
    _put((value,), chunks, False)


def _put(values: Iterable[Any], out: List[bytes], keyed: bool) -> None:
    """The tagged encoder: append every one of ``values`` to ``out``.

    With ``keyed`` the values are a dict's ``(key, value)`` items and
    each key goes out as a bare string before its value.  Dispatch is on
    the exact type; a scalar packs its tag and payload in one ``pack``,
    and only containers recurse.  Instances of subclasses of the
    marshallable types are encoded as their base type (:func:`_as_base`).
    """
    for value in values:
        if keyed:
            key, value = value
            if type(key) is not str:
                if not isinstance(key, str):
                    raise XdrError(f"dict keys must be strings, got {key!r}")
                key = str.__str__(key)
            data = key.encode("utf-8")
            size = len(data)
            out += (_U32.pack(size), data, _PADDING[size & 3])
        kind = type(value)
        if kind is str:
            data = value.encode("utf-8")
            size = len(data)
            out += (_TAG_WORD.pack(_TAG_STRING, size), data, _PADDING[size & 3])
        elif kind is float:
            out.append(_TAG_F64.pack(_TAG_FLOAT, value))
        elif kind is int:
            try:
                out.append(_TAG_I64.pack(_TAG_INT, value))
            except struct.error:
                raise XdrError(f"i64 out of range: {value!r}")
        elif value is None:
            out.append(_NULL)
        elif kind is dict:
            out.append(_TAG_WORD.pack(_TAG_DICT, len(value)))
            _put(value.items(), out, True)
        elif kind is list or kind is tuple:
            out.append(_TAG_WORD.pack(_TAG_LIST, len(value)))
            _put(value, out, False)
        elif kind is bool:
            out.append(_TRUE if value else _FALSE)
        elif kind is Address:
            data = value.host.encode("utf-8")
            size = len(data)
            port = value.port
            if not 0 <= port <= _U32_MAX:
                raise XdrError(f"u32 out of range: {port!r}")
            out += (
                _TAG_WORD.pack(_TAG_ADDRESS, size),
                data,
                _PADDING[size & 3],
                _U32.pack(port),
            )
        elif kind is bytes or kind is bytearray:
            size = len(value)
            out += (_TAG_WORD.pack(_TAG_BYTES, size), bytes(value), _PADDING[size & 3])
        else:
            _put((_as_base(value),), out, False)


def _as_base(value: Any) -> Any:
    """A subclass instance as its marshallable base type, in the order
    the tagged encoding has always tried them (Address before tuple)."""
    if isinstance(value, Address):
        return Address(value.host, value.port)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, dict):
        return dict(value.items())
    raise XdrError(f"cannot marshal value of type {type(value).__name__}")


def decode_value(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode_value`.

    Raises :class:`~repro.rpc.errors.XdrError` on malformed or trailing
    data, and on values nested deeper than :data:`MAX_VALUE_DEPTH`.
    """
    if type(data) is not bytes:
        data = bytes(data)
    (value,), offset = _get(data, 0, 1, False, 0)
    if offset != len(data):
        raise XdrError(f"{len(data) - offset} trailing bytes after value")
    return value


def decode_value_at(data, offset: int) -> Tuple[Any, int]:
    """Decode one tagged value starting at ``offset``; returns ``(value, end)``.

    The same bounds as :func:`decode_value` — :data:`MAX_VALUE_DEPTH`
    and truncation checks — without requiring the value to end the
    buffer.
    """
    if type(data) is not bytes:
        data = bytes(data)
    (value,), offset = _get(data, offset, 1, False, 0)
    return value, offset


def _short(data: bytes, offset: int, count: int) -> XdrTruncated:
    return XdrTruncated(
        f"truncated XDR data at offset {offset}: wanted {count} bytes, "
        f"have {len(data) - offset}"
    )


def _opaque_at(data: bytes, offset: int) -> Tuple[int, int, int]:
    """Bounds-check the opaque at ``offset``: ``(start, stop, next)``."""
    start = offset + 4
    if start > len(data):
        raise _short(data, offset, 4)
    (size,) = _U32.unpack_from(data, offset)
    stop = start + size
    if stop > len(data):
        raise _short(data, start, size)
    pad = size & 3
    if pad and not data.startswith(_PADDING[pad], stop):
        if stop + 4 - pad > len(data):
            raise _short(data, stop, 4 - pad)
        raise XdrError("non-zero XDR padding")
    return start, stop, stop + (-size & 3)


def _text_at(data: bytes, offset: int) -> Tuple[str, int]:
    start, stop, following = _opaque_at(data, offset)
    try:
        return data[start:stop].decode("utf-8"), following
    except UnicodeDecodeError as exc:
        raise XdrError(f"invalid UTF-8 at offset {offset}: {exc}")


def _get(data: bytes, offset: int, count: int, keyed: bool, depth: int):
    """The tagged decoder: ``count`` values at ``offset`` of ``data``.

    Returns ``(values, end)``: a list, or with ``keyed`` (a dict's
    entries, each a bare string key before its value) a dict.  Dispatch
    is on the tag word; scalars are read in place and only containers
    recurse, one level deeper.  ``data`` must be ``bytes``.
    """
    result: Any = {} if keyed else []
    for __ in range(count):
        if keyed:
            start = offset + 4
            if start > len(data):
                raise _short(data, offset, 4)
            (size,) = _U32.unpack_from(data, offset)
            stop = start + size
            if stop > len(data) or size & 3 and not data.startswith(_PADDING[size & 3], stop):
                _opaque_at(data, offset)  # raises the precise bounds error
            try:
                key = data[start:stop].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise XdrError(f"invalid UTF-8 at offset {offset}: {exc}")
            offset = stop + (-size & 3)
        if depth > MAX_VALUE_DEPTH:
            raise XdrError(
                f"value nesting exceeds MAX_VALUE_DEPTH={MAX_VALUE_DEPTH} "
                f"at offset {offset}"
            )
        body = offset + 4
        if body + 4 > len(data):
            if body > len(data):
                raise _short(data, offset, 4)
            (tag,) = _U32.unpack_from(data, offset)
            if tag > _TAG_ADDRESS:
                raise XdrError(f"unknown XDR value tag {tag}")
            if tag != _TAG_NULL:
                raise _short(data, body, 8 if tag in (_TAG_INT, _TAG_FLOAT) else 4)
        else:
            tag, word = _TAG_WORD.unpack_from(data, offset)
        if tag == _TAG_STRING:
            start = body + 4
            stop = start + word
            if stop > len(data) or word & 3 and not data.startswith(_PADDING[word & 3], stop):
                _opaque_at(data, body)  # raises the precise bounds error
            try:
                value = data[start:stop].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise XdrError(f"invalid UTF-8 at offset {body}: {exc}")
            offset = stop + (-word & 3)
        elif tag == _TAG_FLOAT or tag == _TAG_INT:
            offset = body + 8
            if offset > len(data):
                raise _short(data, body, 8)
            (value,) = (_F64 if tag == _TAG_FLOAT else _I64).unpack_from(data, body)
        elif tag == _TAG_DICT or tag == _TAG_LIST:
            offset = body + 4
            if word > len(data) - offset:
                kind = "dict" if tag == _TAG_DICT else "list"
                raise XdrTruncated(
                    f"implausible {kind} length {word} at offset {offset}"
                )
            value, offset = _get(data, offset, word, tag == _TAG_DICT, depth + 1)
        elif tag == _TAG_NULL:
            value, offset = None, body
        elif tag == _TAG_BOOL:
            if word > 1:
                raise XdrError(f"bool must be 0 or 1, got {word}")
            value, offset = word == 1, body + 4
        elif tag == _TAG_BYTES:
            start, stop, offset = _opaque_at(data, body)
            value = data[start:stop]
        elif tag == _TAG_ADDRESS:
            host, offset = _text_at(data, body)
            if offset + 4 > len(data):
                raise _short(data, offset, 4)
            (port,) = _U32.unpack_from(data, offset)
            value, offset = Address(host, port), offset + 4
        else:
            raise XdrError(f"unknown XDR value tag {tag}")
        if keyed:
            result[key] = value
        else:
            result.append(value)
    return result, offset
