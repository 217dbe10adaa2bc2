"""Compiled wire codecs: marshalling stubs generated from SIDL layouts.

The tagged codec (:func:`repro.rpc.xdr.encode_value`) pays for dynamic
marshalling on every call: each leaf carries a tag word, each dict entry
carries its key string, and decoding dispatches on every tag.  When the
SID pins a signature down statically, none of that is needed — as the
paper's Generic Client does at bind time (§4), this module generates a
stub per layout spec (:mod:`repro.sidl.layout`): straight-line Python
source for one encoder and one decoder, nested records inlined, every
fixed-width run of fields packed by a single ``Struct``, compiled once
when the layout is registered (:class:`CompiledCodec`).

Negotiation is per ``(prog, vers, proc)`` through the process-global
:data:`CODECS` registry: both peers derive the same layout from the
same SID, so a registered signature means both ends speak it.  Compiled
bodies are self-announcing — an 8-byte header (magic word + layout
fingerprint) that can never collide with a tagged body, whose first
word is a value tag < 16 — so every decode point accepts either form
and the tagged path remains the transparent fallback:

* encode falls back when the value does not fit the static layout
  (extended struct values, out-of-range ints, dynamic content) — this
  is exactly the paper's dynamic-marshalling escape hatch;
* decode falls back whenever the body is tagged, so compiled-codec
  peers interoperate with peers that never negotiated;
* a server replies compiled only to a call whose body arrived compiled
  (the caller proved it holds the layouts); every other caller gets a
  tagged reply, so a peer without the layout never sees a compiled body.

A layout may embed ``("any",)`` leaves: a tagged sub-value (with the
tagged codec's depth and truncation bounds) inside a positional body,
which is how records with one dynamic field — an offer's properties —
still ride the compiled lane.

Hits and fallbacks are counted per direction in the metrics registry
(``rpc.codec.compiled_hits`` / ``rpc.codec.fallback``); the telemetry
report surfaces them in the wire-path table.
"""

from __future__ import annotations

import functools
import itertools
import struct
import threading
import zlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.rpc.errors import XdrError, XdrTruncated
from repro.rpc.xdr import (
    _NULL,
    _PADDING,
    _TAG_F64,
    _TAG_FLOAT,
    _get,
    _put,
    decode_value,
    encode_value,
)
from repro.telemetry.metrics import METRICS

__all__ = [
    "CODECS",
    "CodecFallback",
    "CodecRegistry",
    "CompiledCodec",
    "MAGIC",
]

#: First word of every compiled body.  Tagged bodies start with a value
#: tag (0..8), so this word is unambiguous at any decode point.
MAGIC = 0x53494443  # "SIDC"

_U32 = struct.Struct(">I")
_HEADER = struct.Struct(">II")  # magic, layout fingerprint


class CodecFallback(Exception):
    """The value does not fit the compiled layout; use the tagged path."""


def fingerprint_of(spec: tuple) -> int:
    """Stable 32-bit fingerprint of a layout spec.

    Both peers derive the spec from the same SID; the fingerprint rides
    in the body header so a decoder can prove it holds the *same*
    layout before trusting a single offset.
    """
    return zlib.crc32(repr(spec).encode("utf-8")) & 0xFFFFFFFF


# -- the generator -----------------------------------------------------------
#
# A layout compiles to Python source: one ``encode(value)`` and one
# ``decode(data)`` function per layout, nested records inlined, every
# fixed-width run of fields packed by one precompiled ``Struct``, string
# and opaque tails handled in place, and ``any`` leaves written and read
# by the tagged kernel (a double or null in place).  SID-supplied
# strings (field names) enter the source only through ``repr()``; enum
# label tables, structs and anything else are namespace constants, so no
# layout can inject code.

_FIXED = {"i64": "q", "f64": "d", "bool": "I", "enum": "I"}


class _Source:
    """Lines of one generated function plus the constants it reads.

    The encoder's and the decoder's sources share one namespace and one
    serial, so no two constants or locals ever get the same name.
    """

    def __init__(self, namespace: Dict[str, Any], serial: Iterator[int]) -> None:
        self.namespace = namespace
        self.lines: List[str] = []
        self._serial = serial

    def var(self, stem: str) -> str:
        return f"{stem}{next(self._serial)}"

    def const(self, value: Any, stem: str) -> str:
        name = self.var("_" + stem)
        self.namespace[name] = value
        return name

    def key(self, name: Any) -> str:
        """A record field name as a source expression."""
        return repr(name) if type(name) is str else self.const(name, "key")

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def text(self, header: str) -> str:
        return "\n".join([header] + self.lines) + "\n"


def _runs(fields) -> List[Tuple[str, Any]]:
    """Group a record's fields into fixed-width runs and single fields."""
    steps: List[Tuple[str, Any]] = []
    for name, sub in fields:
        if sub[0] in _FIXED:
            if steps and steps[-1][0] == "run":
                steps[-1][1].append((name, sub))
                continue
            steps.append(("run", [(name, sub)]))
        else:
            steps.append(("field", (name, sub)))
    return steps


# -- encoder source -----------------------------------------------------------


def _enc(src: _Source, spec: tuple, value: str, depth: int) -> None:
    """Emit statements appending the wire form of local ``value``."""
    kind = spec[0]
    emit = src.emit
    if kind in _FIXED:
        wire = _enc_fixed(src, spec, value, depth)
        packer = src.const(struct.Struct(">" + _FIXED[kind]), "S")
        emit(depth, f"out.append({packer}.pack({wire}))")
    elif kind == "struct":
        fields = spec[1]
        emit(depth, f"if type({value}) is not dict or len({value}) != {len(fields)}:")
        emit(depth + 1, 'raise CodecFallback("value does not match the record layout")')
        for step, item in _runs(fields):
            if step == "run":
                wires = []
                for name, sub in item:
                    field = src.var("f")
                    emit(depth, f"{field} = {value}[{src.key(name)}]")
                    wires.append(_enc_fixed(src, sub, field, depth))
                fmt = ">" + "".join(_FIXED[sub[0]] for __, sub in item)
                packer = src.const(struct.Struct(fmt), "S")
                emit(depth, f"out.append({packer}.pack({', '.join(wires)}))")
            else:
                name, sub = item
                field = src.var("f")
                emit(depth, f"{field} = {value}[{src.key(name)}]")
                _enc(src, sub, field, depth)
    elif kind in ("string", "bytes"):
        data = src.var("d")
        if kind == "string":
            emit(depth, f"if type({value}) is not str:")
            emit(depth + 1, 'raise CodecFallback("not a string")')
            emit(depth, f'{data} = {value}.encode("utf-8")')
        else:
            emit(depth, f"if not isinstance({value}, (bytes, bytearray)):")
            emit(depth + 1, 'raise CodecFallback("not bytes")')
            emit(depth, f"{data} = bytes({value})")
        emit(depth, f"out += (_U32.pack(len({data})), {data}, _PADDING[len({data}) & 3])")
    elif kind == "optional":
        emit(depth, f"if {value} is None:")
        emit(depth + 1, "out.append(_ABSENT)")
        emit(depth, "else:")
        emit(depth + 1, "out.append(_PRESENT)")
        _enc(src, spec[1], value, depth + 1)
    elif kind == "seq":
        item = src.var("e")
        emit(depth, f"if not isinstance({value}, (list, tuple)):")
        emit(depth + 1, 'raise CodecFallback("not a sequence")')
        emit(depth, f"out.append(_U32.pack(len({value})))")
        emit(depth, f"for {item} in {value}:")
        _enc(src, spec[1], item, depth + 1)
    elif kind == "any":
        # Doubles and nulls (the trader's lease fields) are written in
        # place, with the kernel's bytes; everything else goes to it.
        emit(depth, f"if type({value}) is float:")
        emit(depth + 1, f"out.append(_TAGGED_F64.pack(_TAG_FLOAT, {value}))")
        emit(depth, f"elif {value} is None:")
        emit(depth + 1, "out.append(_TAGGED_NULL)")
        emit(depth, "else:")
        emit(depth + 1, "try:")
        emit(depth + 2, f"_put_tagged(({value},), out, False)")
        emit(depth + 1, "except XdrError:")
        emit(depth + 2, 'raise CodecFallback("value cannot be marshalled")')
    elif kind == "void":
        emit(depth, f"if {value} is not None:")
        emit(depth + 1, 'raise CodecFallback("void must be None")')
    else:
        raise ConfigurationError(f"unknown layout spec kind {kind!r}")


def _enc_fixed(src: _Source, spec: tuple, value: str, depth: int) -> str:
    """Emit the checks of a fixed-width leaf; return its packable expression."""
    kind = spec[0]
    emit = src.emit
    if kind == "i64":
        emit(depth, f"if type({value}) is not int:")
        emit(depth + 1, 'raise CodecFallback("not an int")')
        return value
    if kind == "f64":
        emit(depth, f"if type({value}) is not float:")
        emit(depth + 1, 'raise CodecFallback("not a float")')
        return value
    wire = src.var("w")
    if kind == "bool":
        emit(depth, f"if {value} is True:")
        emit(depth + 1, f"{wire} = 1")
        emit(depth, f"elif {value} is False:")
        emit(depth + 1, f"{wire} = 0")
        emit(depth, "else:")
        emit(depth + 1, 'raise CodecFallback("not a bool")')
        return wire
    index = src.const({label: position for position, label in enumerate(spec[1])}, "E")
    emit(depth, "try:")
    emit(depth + 1, f"{wire} = {index}[{value}]")
    emit(depth, "except (KeyError, TypeError):")
    emit(depth + 1, 'raise CodecFallback("not an enum label")')
    return wire


# -- decoder source -----------------------------------------------------------


def _dec(src: _Source, spec: tuple, target: str, depth: int) -> None:
    """Emit statements decoding one value at ``offset`` into ``target``."""
    kind = spec[0]
    emit = src.emit
    if kind in _FIXED:
        packer = struct.Struct(">" + _FIXED[kind])
        emit(depth, f"if offset + {packer.size} > limit:")
        emit(depth + 1, 'raise _truncated("compiled value", offset)')
        emit(depth, f"({target},) = {src.const(packer, 'S')}.unpack_from(data, offset)")
        emit(depth, f"offset += {packer.size}")
        _dec_fixed(src, spec, target, depth)
    elif kind == "struct":
        values = []
        for step, item in _runs(spec[1]):
            if step == "run":
                fields = [(name, sub, src.var("v")) for name, sub in item]
                packer = struct.Struct(">" + "".join(_FIXED[sub[0]] for __, sub, __ in fields))
                emit(depth, f"if offset + {packer.size} > limit:")
                emit(depth + 1, 'raise _truncated("compiled record", offset)')
                names = "".join(f"{local}, " for __, __, local in fields)
                emit(depth, f"{names}= {src.const(packer, 'S')}.unpack_from(data, offset)")
                emit(depth, f"offset += {packer.size}")
                for name, sub, local in fields:
                    _dec_fixed(src, sub, local, depth)
                    values.append((name, local))
            else:
                name, sub = item
                local = src.var("v")
                _dec(src, sub, local, depth)
                values.append((name, local))
        pairs = ", ".join(f"{src.key(name)}: {local}" for name, local in values)
        emit(depth, f"{target} = {{{pairs}}}")
    elif kind in ("string", "bytes"):
        size, stop = src.var("n"), src.var("end")
        emit(depth, "if offset + 4 > limit:")
        emit(depth + 1, 'raise _truncated("length prefix", offset)')
        emit(depth, f"({size},) = _U32.unpack_from(data, offset)")
        emit(depth, "offset += 4")
        emit(depth, f"{stop} = offset + {size}")
        emit(depth, f"if {stop} + (-{size} & 3) > limit:")
        emit(depth + 1, f"raise _truncated_payload(offset, {size}, limit)")
        if kind == "string":
            # A bad byte raises UnicodeDecodeError to decode()'s one
            # handler while ``offset`` still marks this string.
            emit(depth, f'{target} = data[offset:{stop}].decode("utf-8")')
        else:
            emit(depth, f"{target} = data[offset:{stop}]")
        emit(depth, f"offset = {stop} + (-{size} & 3)")
    elif kind == "optional":
        flag = src.var("flag")
        emit(depth, "if offset + 4 > limit:")
        emit(depth + 1, 'raise _truncated("optional flag", offset)')
        emit(depth, f"({flag},) = _U32.unpack_from(data, offset)")
        emit(depth, "offset += 4")
        emit(depth, f"if {flag} == 0:")
        emit(depth + 1, f"{target} = None")
        emit(depth, f"elif {flag} == 1:")
        _dec(src, spec[1], target, depth + 1)
        emit(depth, "else:")
        emit(depth + 1, f'raise XdrError(f"optional flag must be 0 or 1, got {{{flag}}}")')
    elif kind == "seq":
        count, item = src.var("count"), src.var("x")
        emit(depth, "if offset + 4 > limit:")
        emit(depth + 1, 'raise _truncated("sequence count", offset)')
        emit(depth, f"({count},) = _U32.unpack_from(data, offset)")
        emit(depth, "offset += 4")
        # Bounded by the bytes that remain after the count, not by the
        # whole body: a forged count fails before any element is read.
        emit(depth, f"if {count} > limit - offset:")
        emit(
            depth + 1,
            f'raise XdrError(f"implausible sequence count {{{count}}} at offset {{offset}}")',
        )
        emit(depth, f"{target} = []")
        emit(depth, f"for __ in range({count}):")
        _dec(src, spec[1], item, depth + 1)
        emit(depth + 1, f"{target}.append({item})")
    elif kind == "any":
        tag = src.var("tag")
        emit(depth, "if offset + 12 <= limit:")
        emit(depth + 1, f"{tag}, {target} = _TAGGED_F64.unpack_from(data, offset)")
        emit(depth, "else:")
        emit(depth + 1, f"{tag} = -1")
        emit(depth, f"if {tag} == _TAG_FLOAT:")
        emit(depth + 1, "offset += 12")
        emit(depth, "else:")
        emit(depth + 1, f"({target},), offset = _get_tagged(data, offset, 1, False, 0)")
    else:  # void
        emit(depth, f"{target} = None")


def _dec_fixed(src: _Source, spec: tuple, local: str, depth: int) -> None:
    """Emit the conversion of an unpacked fixed-width leaf in place."""
    kind = spec[0]
    emit = src.emit
    if kind == "bool":
        emit(depth, f"if {local} > 1:")
        emit(depth + 1, f'raise XdrError(f"bool must be 0 or 1, got {{{local}}}")')
        emit(depth, f"{local} = {local} == 1")
    elif kind == "enum":
        labels = tuple(spec[1])
        emit(depth, f"if {local} >= {len(labels)}:")
        emit(depth + 1, f'raise XdrError(f"enum index {{{local}}} out of range")')
        emit(depth, f"{local} = {src.const(labels, 'L')}[{local}]")


def _truncated(what: str, offset: int) -> XdrTruncated:
    return XdrTruncated(f"truncated {what} at offset {offset}")


def _truncated_payload(offset: int, size: int, limit: int) -> XdrTruncated:
    padded = size + (-size & 3)
    return XdrTruncated(
        f"truncated payload at offset {offset}: wanted {padded} bytes, "
        f"have {limit - offset}"
    )


@functools.lru_cache(maxsize=256)
def _generate(spec: tuple) -> Tuple[str, Callable[[Any], bytes], Callable[[Any], Any]]:
    """``(source, encode, decode)`` for one layout spec.

    ``encode(value)`` returns the whole compiled body, header included,
    or raises :class:`CodecFallback`; ``decode(data)`` checks the body
    from the header on to its last byte.  Pure in ``spec``, so equal
    layouts (a SID's many ``boolean`` results) share one generation.
    """
    namespace: Dict[str, Any] = {
        "CodecFallback": CodecFallback,
        "XdrError": XdrError,
        "_U32": _U32,
        "_PADDING": _PADDING,
        "_ABSENT": _U32.pack(0),
        "_PRESENT": _U32.pack(1),
        "_put_tagged": _put,
        "_get_tagged": _get,
        "_TAGGED_F64": _TAG_F64,
        "_TAGGED_NULL": _NULL,
        "_TAG_FLOAT": _TAG_FLOAT,
        "_truncated": _truncated,
        "_truncated_payload": _truncated_payload,
        "struct_error": struct.error,
        "_HEADER_BYTES": _HEADER.pack(MAGIC, fingerprint_of(spec)),
    }
    serial = itertools.count(1)
    encoder = _Source(namespace, serial)
    encoder.emit(1, "out = [_HEADER_BYTES]")
    encoder.emit(1, "try:")
    _enc(encoder, spec, "value", 2)
    encoder.emit(1, "except KeyError:")
    encoder.emit(2, 'raise CodecFallback("missing record field")')
    encoder.emit(1, "except struct_error:")
    encoder.emit(2, 'raise CodecFallback("value out of range for the compiled layout")')
    encoder.emit(1, 'return b"".join(out)')
    decoder = _Source(namespace, serial)
    decoder.emit(1, "if type(data) is not bytes:")
    decoder.emit(2, "data = bytes(data)")
    decoder.emit(1, "limit = len(data)")
    decoder.emit(1, f"offset = {_HEADER.size}")
    decoder.emit(1, "try:")
    _dec(decoder, spec, "value", 2)
    decoder.emit(1, "except UnicodeDecodeError as exc:")
    decoder.emit(2, 'raise XdrError(f"invalid UTF-8 at offset {offset}: {exc}")')
    decoder.emit(1, "if offset != limit:")
    decoder.emit(2, 'raise XdrError(f"{limit - offset} trailing bytes after compiled value")')
    decoder.emit(1, "return value")
    source = encoder.text("def encode(value):") + "\n" + decoder.text("def decode(data):")
    exec(compile(source, f"<layout {namespace['_HEADER_BYTES'][4:].hex()}>", "exec"), namespace)
    return source, namespace["encode"], namespace["decode"]


class CompiledCodec:
    """One layout spec compiled to generated encode/decode functions."""

    def __init__(self, spec: tuple) -> None:
        self.source, self.encode, self.decode = _generate(spec)
        self.spec = spec
        self.fingerprint = fingerprint_of(spec)


def is_compiled(body) -> bool:
    """True when ``body`` carries the compiled-codec header."""
    if len(body) < _HEADER.size:
        return False
    (magic,) = _U32.unpack_from(body, 0)
    return magic == MAGIC


class CodecRegistry:
    """Per-``(prog, vers, proc)`` codec negotiation with tagged fallback.

    ``encode_args``/``decode_args`` cover CALL bodies and
    ``encode_result``/``decode_result`` cover SUCCESS reply bodies; all
    four degrade to the tagged codec when no signature is registered,
    when the value needs dynamic marshalling, or when the peer sent a
    tagged body.  Registration is idempotent for an identical spec and
    refuses silent redefinition otherwise.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._codecs: Dict[Tuple[int, int, int, str], CompiledCodec] = {}

    def register(
        self,
        prog: int,
        vers: int,
        proc: int,
        args: Optional[tuple] = None,
        result: Optional[tuple] = None,
    ) -> None:
        """Negotiate compiled layouts for one procedure.

        ``args`` describes the CALL body, ``result`` the SUCCESS reply
        body; either may be ``None`` to keep that direction tagged.
        """
        with self._lock:
            for direction, spec in (("args", args), ("result", result)):
                if spec is None:
                    continue
                key = (prog, vers, proc, direction)
                existing = self._codecs.get(key)
                if existing is not None:
                    if existing.spec == spec:
                        continue
                    raise ConfigurationError(
                        f"codec for prog={prog} vers={vers} proc={proc} "
                        f"{direction} already registered with a different layout"
                    )
                self._codecs[key] = CompiledCodec(spec)

    def register_operation(self, prog: int, vers: int, proc: int, operation) -> bool:
        """Derive and register layouts from a SIDL operation signature.

        Returns ``False`` (registering nothing) when the signature has
        no static layout — the tagged path simply continues to serve it.
        """
        from repro.sidl.layout import SidlLayoutError, operation_layouts

        try:
            args, result = operation_layouts(operation)
        except SidlLayoutError:
            return False
        self.register(prog, vers, proc, args=args, result=result)
        return True

    def lookup(self, prog: int, vers: int, proc: int, direction: str):
        return self._codecs.get((prog, vers, proc, direction))

    def negotiated(self, prog: int, vers: int, proc: int) -> bool:
        """True when either direction of the procedure is compiled."""
        return (
            self.lookup(prog, vers, proc, "args") is not None
            or self.lookup(prog, vers, proc, "result") is not None
        )

    def clear(self) -> None:
        with self._lock:
            self._codecs.clear()

    # -- encode/decode boundaries -----------------------------------------

    def _encode(self, codec: Optional[CompiledCodec], value: Any, direction: str) -> bytes:
        if codec is not None:
            try:
                body = codec.encode(value)
            except CodecFallback:
                METRICS.inc("rpc.codec.fallback", (direction, "encode"))
            else:
                METRICS.inc("rpc.codec.compiled_hits", (direction, "encode"))
                return body
        return encode_value(value)

    def _decode(self, codec: Optional[CompiledCodec], body, direction: str) -> Any:
        if is_compiled(body):
            (__, fingerprint) = _HEADER.unpack_from(body, 0)
            if codec is None:
                raise XdrError(
                    f"compiled {direction} body for an unnegotiated signature "
                    f"(fingerprint {fingerprint:#010x})"
                )
            if fingerprint != codec.fingerprint:
                raise XdrError(
                    f"compiled {direction} body fingerprint {fingerprint:#010x} "
                    f"does not match the negotiated layout "
                    f"{codec.fingerprint:#010x}"
                )
            value = codec.decode(body)
            METRICS.inc("rpc.codec.compiled_hits", (direction, "decode"))
            return value
        if codec is not None:
            # Negotiated signature, tagged body: the peer fell back to
            # dynamic marshalling (or never negotiated) — interop intact.
            METRICS.inc("rpc.codec.fallback", (direction, "decode"))
        return decode_value(body)

    def encode_args(self, prog: int, vers: int, proc: int, value: Any) -> bytes:
        return self._encode(self.lookup(prog, vers, proc, "args"), value, "args")

    def decode_args(self, prog: int, vers: int, proc: int, body) -> Any:
        return self._decode(self.lookup(prog, vers, proc, "args"), body, "args")

    def encode_result(
        self, prog: int, vers: int, proc: int, value: Any, compiled: bool = True
    ) -> bytes:
        """A SUCCESS reply body; ``compiled=False`` forces the tagged form.

        A server passes whether the call it answers arrived compiled:
        only such a caller has proved it holds this procedure's layouts.
        """
        codec = self.lookup(prog, vers, proc, "result") if compiled else None
        return self._encode(codec, value, "result")

    def decode_result(self, prog: int, vers: int, proc: int, body) -> Any:
        return self._decode(self.lookup(prog, vers, proc, "result"), body, "result")


#: The process-global registry every client and server consults.  Both
#: sides of a connection derive signatures from the same SID, so a
#: registration here is the negotiation.
CODECS = CodecRegistry()
