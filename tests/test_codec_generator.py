"""The layout generator: SID-supplied strings never become code.

Field names and enum labels come from a downloaded SID.  The generator
turns each layout into Python source, so a name that is itself Python
source, or that carries quotes or newlines, must reach the generated
functions only as a ``repr()`` literal or a namespace constant.
"""

import ast

import pytest

from repro.rpc.codec import CODECS, CodecFallback, CompiledCodec
from repro.rpc.errors import XdrError
from repro.sidl import layout

HOSTILE = [
    'quote"d',
    "it's",
    "new\nline",
    "__import__('os')._exit(3)",
    "'); raise SystemExit(1) #",
    '"""',
    "}, {",
    "back\\slash",
    "tab\tand\x00nul",
    "ünïcödé",
    "{offset}",
]

SPEC = layout.struct(
    **{
        HOSTILE[0]: layout.enum(*HOSTILE),
        HOSTILE[1]: layout.string(),
        HOSTILE[2]: layout.i64(),
        HOSTILE[3]: layout.seq(
            layout.struct(**{HOSTILE[4]: layout.boolean(), HOSTILE[5]: layout.any()})
        ),
        HOSTILE[6]: layout.optional(layout.struct(**{HOSTILE[7]: layout.f64()})),
        HOSTILE[8]: layout.enum(*reversed(HOSTILE)),
        HOSTILE[9]: layout.octets(),
        HOSTILE[10]: layout.string(),
    }
)

VALUE = {
    HOSTILE[0]: HOSTILE[3],
    HOSTILE[1]: HOSTILE[4],
    HOSTILE[2]: -7,
    HOSTILE[3]: [
        {HOSTILE[4]: True, HOSTILE[5]: {HOSTILE[6]: [HOSTILE[7]]}},
        {HOSTILE[4]: False, HOSTILE[5]: None},
    ],
    HOSTILE[6]: {HOSTILE[7]: 2.5},
    HOSTILE[8]: HOSTILE[2],
    HOSTILE[9]: HOSTILE[10].encode("utf-8"),
    HOSTILE[10]: "{offset}",
}


def test_hostile_names_and_labels_round_trip():
    codec = CompiledCodec(SPEC)
    body = codec.encode(VALUE)
    assert codec.decode(body) == VALUE
    assert list(codec.decode(body)) == list(VALUE)  # field order kept


def test_hostile_strings_enter_the_source_only_as_literals():
    source = CompiledCodec(SPEC).source
    tree = ast.parse(source)
    literals = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    # Every field name is a string literal of the tree...
    assert set(HOSTILE) <= literals
    # ...and nothing else: no call reaches a name a SID could supply.
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert called <= {
        "type", "len", "isinstance", "bytes", "range", "CodecFallback",
        "XdrError", "_put_tagged", "_get_tagged", "_truncated", "_truncated_payload",
    }


def test_enum_labels_are_namespace_constants():
    codec = CompiledCodec(layout.struct(kind=layout.enum("AUDI", "FIAT-Uno", "VW-Golf")))
    assert "FIAT-Uno" not in codec.source
    assert codec.decode(codec.encode({"kind": "FIAT-Uno"})) == {"kind": "FIAT-Uno"}
    with pytest.raises(CodecFallback):
        codec.encode({"kind": "Trabant"})


def test_generated_source_is_python39_grammar():
    """The generated functions must also run on the oldest Python the
    package supports."""
    from repro.trader.trader import _PROC_IMPORT, TRADER_PROGRAM

    for codec in (
        CompiledCodec(SPEC),
        CODECS.lookup(TRADER_PROGRAM, 1, _PROC_IMPORT, "args"),
        CODECS.lookup(TRADER_PROGRAM, 1, _PROC_IMPORT, "result"),
    ):
        ast.parse(codec.source, feature_version=(3, 9))


def test_hostile_bodies_still_raise_only_xdr_errors():
    codec = CompiledCodec(SPEC)
    body = codec.encode(VALUE)
    for cut in range(8, len(body)):
        with pytest.raises(XdrError):
            codec.decode(body[:cut])


def test_one_generation_per_registered_layout():
    """Registration generates once; an identical re-registration reuses
    the generated codec."""
    from repro.rpc.codec import CodecRegistry

    registry = CodecRegistry()
    registry.register(940300, 1, 1, args=SPEC)
    first = registry.lookup(940300, 1, 1, "args")
    registry.register(940300, 1, 1, args=SPEC)
    assert registry.lookup(940300, 1, 1, "args") is first


def test_unknown_layout_kind_refused():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="unknown layout spec kind"):
        CompiledCodec(layout.struct(a=layout.seq(("float128",))))


def test_generated_names_never_collide():
    """Encoder and decoder share one namespace: no constant name of one
    may be reused by the other, or one would read the other's Struct."""
    import re

    spec = layout.struct(
        a=layout.enum("x", "y"), b=layout.string(), c=layout.i64(), d=layout.f64(),
        e=layout.seq(layout.struct(f=layout.boolean(), g=layout.f64())),
    )
    codec = CompiledCodec(spec)
    encoder, decoder = codec.source.split("def decode(")
    constants = re.compile(r"\b_(?:[SEL]|key)\d+\b")
    assert not set(constants.findall(encoder)) & set(constants.findall(decoder))
    value = {"a": "y", "b": "z", "c": 3, "d": 0.5, "e": [{"f": True, "g": -1.0}]}
    assert codec.decode(codec.encode(value)) == value
