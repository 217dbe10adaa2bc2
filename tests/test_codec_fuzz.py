"""Fuzzing the compiled decoders with hostile bytes.

Whatever arrives — arbitrary bytes, bytes behind a valid compiled
header, or a valid compiled IMPORT/EXPORT body with one byte changed or
a tail cut off — decoding either yields a value or raises
:class:`XdrError`.  Nothing else may escape: no ``IndexError``,
``struct.error``, ``UnicodeDecodeError``, ``RecursionError`` or
``MemoryError`` from a forged count.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.rpc.codec import CODECS, MAGIC
from repro.rpc.errors import XdrError
from repro.trader.trader import _PROC_EXPORT, _PROC_IMPORT, TRADER_PROGRAM, ImportRequest

_REF = ServiceRef.create("Desk", Address("10.0.0.1", 7001), 300001).to_wire()
_OFFER = {
    "offer_id": "bench:Rental0:17",
    "service_type": "Rental0",
    "ref": _REF,
    "properties": {"City": "City3", "ChargePerDay": 81.25, "Rating": 4, "Tags": ["a", None]},
    "exported_at": 12.5,
    "expires_at": 612.5,
    "lease_seconds": 600.0,
}
_IMPORT_ARGS = ImportRequest(
    "Rental0", "City == 'City3' and Rating >= 2", "max ChargePerDay", 50, visited=["t1"]
).to_wire()
_EXPORT_ARGS = {
    "service_type": "Rental0",
    "ref": _REF,
    "properties": _OFFER["properties"],
    "lifetime": None,
    "lease_seconds": 600.0,
}

#: (direction, proc, valid compiled body)
BODIES = [
    ("args", _PROC_IMPORT, CODECS.encode_args(TRADER_PROGRAM, 1, _PROC_IMPORT, _IMPORT_ARGS)),
    ("result", _PROC_IMPORT, CODECS.encode_result(TRADER_PROGRAM, 1, _PROC_IMPORT, [_OFFER] * 3)),
    ("args", _PROC_EXPORT, CODECS.encode_args(TRADER_PROGRAM, 1, _PROC_EXPORT, _EXPORT_ARGS)),
    ("result", _PROC_EXPORT, CODECS.encode_result(TRADER_PROGRAM, 1, _PROC_EXPORT, "bench:Rental0:18")),
]


def _decode(direction, proc, body):
    decode = CODECS.decode_args if direction == "args" else CODECS.decode_result
    try:
        decode(TRADER_PROGRAM, 1, proc, body)
    except XdrError:
        pass


def test_bodies_are_compiled():
    for __, __, body in BODIES:
        assert struct.unpack_from(">I", body)[0] == MAGIC


@given(st.sampled_from(BODIES), st.binary(max_size=256))
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes_raise_only_xdr_error(case, noise):
    direction, proc, body = case
    _decode(direction, proc, noise)
    # Behind the real header, so the compiled decoder itself runs.
    _decode(direction, proc, body[:8] + noise)


@given(st.sampled_from(BODIES), st.data())
@settings(max_examples=400, deadline=None)
def test_single_byte_mutations_raise_only_xdr_error(case, data):
    direction, proc, body = case
    index = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
    value = data.draw(st.integers(min_value=0, max_value=255))
    mutated = body[:index] + bytes([value]) + body[index + 1:]
    _decode(direction, proc, mutated)
    cut = data.draw(st.integers(min_value=0, max_value=len(body)))
    _decode(direction, proc, mutated[:cut])
