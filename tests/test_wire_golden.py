"""Golden wire bytes: the codecs must keep producing exactly these bodies.

``tests/fixtures/golden_wire.json`` holds compiled and tagged bodies
recorded with the closure-compiled codec and the recursive tagged walker
that preceded the generated codec.  Every case here must still encode to
the recorded bytes and decode back to an equal value, so a change to the
codec machinery can never move a wire byte unnoticed.

Run this module as a script to print the fixture for the codec in the
working tree (only needed when a case is *added*; an existing case's
bytes must never be re-recorded).
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import pytest

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.rpc.codec import CODECS, CompiledCodec
from repro.rpc.message import ReplyStatus, RpcCall, RpcReply, decode_messages, encode_batch
from repro.rpc.xdr import decode_value, encode_value
from repro.services.car_rental import make_car_rental_sid
from repro.sidl import layout
from repro.trader.trader import (
    _PROC_EXPORT,
    _PROC_IMPORT,
    _PROC_RENEW,
    TRADER_PROGRAM,
    ImportRequest,
)

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_wire.json"

_IMPORT_ARGS = ImportRequest(
    "Rental3",
    "City == 'City7' and ChargePerDay < 90.5",
    "min ChargePerDay",
    10,
    structural=True,
    hop_limit=2,
    visited=["hub", "trader-ü"],
).to_wire()


def _offer(index: int) -> dict:
    # Built directly: ``ServiceRef.create`` numbers ids process-wide.
    ref = ServiceRef(
        f"cosm:CarRental{index}:10.0.0.{index}:{7000 + index}:{index}",
        f"CarRental{index}",
        f"10.0.0.{index}",
        7000 + index,
        300000 + index,
        1,
    )
    properties = {
        "City": f"City{index % 4}",
        "ChargePerDay": 40.0 + index * 7.25,
        "Rating": index % 5,
        "Automatic": index % 2 == 0,
        "Tags": ["economy", None, index, -1.5],
        "Notes": "grüße" * (index % 3),
        "Blob": bytes(range(index)),
        "Depot": Address("depot", 9000 + index),
        "Nested": {"a": [{"b": index}], "c": {}},
    }
    return {
        "offer_id": f"bench:Rental3:{index}",
        "service_type": "Rental3",
        "ref": ref.to_wire(),
        "properties": properties,
        "exported_at": 12.5 + index,
        "expires_at": None if index % 3 == 0 else 600.0 + index,
        "lease_seconds": None if index % 3 == 0 else 600,
    }


_OFFERS = [_offer(index) for index in range(10)]

_EXPORT_ARGS = {
    "service_type": "Rental3",
    "ref": _OFFERS[1]["ref"],
    "properties": _OFFERS[1]["properties"],
    "lifetime": None,
    "lease_seconds": 600.0,
}

_TAGGED_MIX = [
    None,
    True,
    False,
    0,
    -1,
    2**63 - 1,
    -(2**63),
    0.0,
    -0.0,
    1e300,
    float("inf"),
    "",
    "ünïcode",
    b"",
    b"\x00\x01\x02\x03\x04",
    (1, "tuple"),
    Address("sparc1", 111),
    {"z": 1, "a": [{}, []]},
]

_ODD_SPEC = layout.struct(
    n=layout.i64(),
    f=layout.f64(),
    ok=layout.boolean(),
    kind=layout.enum("a", "b", "c"),
    maybe=layout.optional(layout.struct(x=layout.i64(), y=layout.string())),
    items=layout.seq(layout.optional(layout.f64())),
    blob=layout.octets(),
    extra=layout.any(),
    nothing=layout.void(),
)
_ODD_VALUE = {
    "n": -(2**40),
    "f": -0.0,
    "ok": False,
    "kind": "c",
    "maybe": {"x": 7, "y": "abc"},
    "items": [1.5, None, -2.0],
    "blob": b"\x00\xff\x10",
    "extra": {"k": [None, Address("h", 1)]},
    "nothing": None,
}


def _batch_messages() -> list:
    import_body = CODECS.encode_args(TRADER_PROGRAM, 1, _PROC_IMPORT, _IMPORT_ARGS)
    renew_body = CODECS.encode_args(TRADER_PROGRAM, 1, _PROC_RENEW, {"offer_id": "t:R:1"})
    return [
        RpcCall(1, TRADER_PROGRAM, 1, _PROC_IMPORT, import_body, 125.5, "trace-1", 3, True),
        RpcCall(2, TRADER_PROGRAM, 1, _PROC_RENEW, renew_body),
        RpcReply(2, ReplyStatus.SUCCESS, encode_value(630.0)),
        RpcReply(3, ReplyStatus.SHED, b""),
    ]


def _cases() -> dict:
    """``name -> (encode, decode, value)``: how each golden body is made."""

    def compiled_args(proc):
        return (
            lambda value: CODECS.encode_args(TRADER_PROGRAM, 1, proc, value),
            lambda body: CODECS.decode_args(TRADER_PROGRAM, 1, proc, body),
        )

    def compiled_result(proc):
        return (
            lambda value: CODECS.encode_result(TRADER_PROGRAM, 1, proc, value),
            lambda body: CODECS.decode_result(TRADER_PROGRAM, 1, proc, body),
        )

    tagged = (encode_value, decode_value)
    odd = CompiledCodec(_ODD_SPEC)
    return {
        "import_args_compiled": (*compiled_args(_PROC_IMPORT), _IMPORT_ARGS),
        "import_args_tagged": (*tagged, _IMPORT_ARGS),
        "import_reply10_compiled": (*compiled_result(_PROC_IMPORT), _OFFERS),
        "import_reply10_tagged": (*tagged, _OFFERS),
        "export_args_compiled": (*compiled_args(_PROC_EXPORT), _EXPORT_ARGS),
        "export_args_tagged": (*tagged, _EXPORT_ARGS),
        "export_result_compiled": (*compiled_result(_PROC_EXPORT), "bench:Rental3:11"),
        "renew_args_compiled": (*compiled_args(_PROC_RENEW), {"offer_id": "bench:Rental3:4"}),
        "renew_result_compiled": (*compiled_result(_PROC_RENEW), 1212.5),
        "renew_result_none_compiled": (*compiled_result(_PROC_RENEW), None),
        "batch_envelope": (encode_batch, decode_messages, _batch_messages()),
        "car_rental_sid_tagged": (*tagged, make_car_rental_sid(service_id=4711).to_wire()),
        "tagged_mix": (*tagged, _TAGGED_MIX),
        "all_kinds_compiled": (odd.encode, odd.decode, _ODD_VALUE),
    }


def _normalise(value):
    """The decoded form of ``value``: tuples (other than an Address)
    arrive as lists."""
    if isinstance(value, Address):
        return value
    if isinstance(value, (list, tuple)):
        return [_normalise(item) for item in value]
    if isinstance(value, dict):
        return {key: _normalise(item) for key, item in value.items()}
    return value


def _same(left, right) -> bool:
    """Equality that also tells 0.0 from -0.0 and keeps Address typed."""
    if isinstance(left, float) and isinstance(right, float):
        return math.copysign(1.0, left) == math.copysign(1.0, right) and left == right
    if type(left) is not type(right):
        return False
    if isinstance(left, Address):
        return left == right
    if isinstance(left, list):
        return len(left) == len(right) and all(map(_same, left, right))
    if isinstance(left, dict):
        return list(left) == list(right) and all(_same(left[k], right[k]) for k in left)
    return left == right


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_encodes_to_the_golden_bytes(golden, name):
    encode, __, value = _cases()[name]
    assert encode(value).hex() == golden[name]


@pytest.mark.parametrize("name", sorted(_cases()))
def test_golden_bytes_decode_to_the_value(golden, name):
    __, decode, value = _cases()[name]
    decoded = decode(bytes.fromhex(golden[name]))
    if name == "batch_envelope":
        assert decoded == value
    else:
        assert _same(decoded, _normalise(value))


def test_trader_layout_fingerprints_unchanged(golden):
    """The golden compiled bodies carry the layout fingerprint in their
    header, so an unchanged header proves an unchanged layout."""
    for name, (proc, direction) in {
        "import_args_compiled": (_PROC_IMPORT, "args"),
        "import_reply10_compiled": (_PROC_IMPORT, "result"),
        "export_args_compiled": (_PROC_EXPORT, "args"),
        "renew_result_compiled": (_PROC_RENEW, "result"),
    }.items():
        codec = CODECS.lookup(TRADER_PROGRAM, 1, proc, direction)
        assert bytes.fromhex(golden[name])[4:8] == codec.fingerprint.to_bytes(4, "big")


if __name__ == "__main__":
    recorded = {name: encode(value).hex() for name, (encode, __, value) in _cases().items()}
    json.dump(recorded, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
