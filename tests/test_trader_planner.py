"""The import planner against a brute-force oracle.

Matching takes several shortcuts — the equality bucket ordered by the
store's insertion sequence, the sorted-index walk for ``min``/``max``,
the choice between the two by expected offers examined, and the early
stop of a bounded ``first`` import.  None may change an answer.  The
oracle here uses none of them: it scans every offer of the matching
types in canonical order, drops expired leases, resolves dynamic
markers, evaluates a freshly parsed constraint and applies the
preference — for a :class:`LocalTrader` and a :class:`ShardRouter`
alike.  The example tests at the bottom pin which path a query takes.
"""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType, STRING
from repro.telemetry.metrics import METRICS
from repro.trader import trader as trader_module
from repro.trader.constraints import Constraint, _Parser, _tokenize, parse_constraint
from repro.trader.dynamic import dynamic_property, resolve_properties
from repro.trader.policies import parse_preference
from repro.trader.service_types import ServiceType
from repro.trader.sharding import build_local_router
from repro.trader.trader import ImportRequest, LocalTrader

_INTERFACE = InterfaceType("I", [OperationType("Op", [], LONG)])
_MARKER_REF = ServiceRef.create("Oracle", Address("dyn", 1), 4711)


def _types():
    """T; U, a declared subtype of T; V, an unrelated type that conforms
    to T structurally (matched only by structural imports)."""
    wider = InterfaceType("W", [OperationType("Op", [], LONG), OperationType("Extra", [], LONG)])
    return [
        ServiceType("T", _INTERFACE, []),
        ServiceType("U", _INTERFACE, [], super_types=["T"]),
        ServiceType("V", wider, []),
    ]


def evaluator(marker):
    return marker["arguments"]["value"]


def _marker(value):
    return dynamic_property(_MARKER_REF, "Get", {"value": value})


def fresh_parse(text):
    """A brand-new parse, bypassing the constraint cache."""
    if not text:
        return parse_constraint("")
    parser = _Parser(_tokenize(text))
    root = parser.parse_or()
    parser.expect("\0")
    return Constraint(text, root)


# -- generated worlds ---------------------------------------------------------

_a_values = st.one_of(st.integers(0, 3), st.integers(0, 3).map(_marker))
offer_specs = st.tuples(
    st.sampled_from(["T", "U", "V"]),
    st.fixed_dictionaries(
        {},
        optional={
            "a": _a_values,
            "b": st.sampled_from(["x", "y"]),
            "c": st.sampled_from([0.5, 1.5, 2.5]),
        },
    ),
    st.sampled_from([None, 5.0, 50.0]),  # lease seconds
)
constraints = st.one_of(
    st.just(""),
    st.integers(0, 3).map(lambda i: f"a == {i}"),
    st.sampled_from(["x", "y"]).map(lambda s: f"b == '{s}'"),
    st.integers(0, 3).map(lambda i: f"a >= {i}"),
    st.sampled_from([1.0, 2.0]).map(lambda f: f"c < {f}"),
    st.tuples(st.integers(0, 3), st.sampled_from([1.0, 2.0, 3.0])).map(
        lambda t: f"a == {t[0]} and c < {t[1]}"
    ),
    st.tuples(st.sampled_from(["x", "y"]), st.integers(0, 3)).map(
        lambda t: f"b == '{t[0]}' and a > {t[1]}"
    ),
    st.tuples(st.integers(0, 3), st.sampled_from(["x", "y"])).map(
        lambda t: f"a == {t[0]} or b == '{t[1]}'"
    ),
    st.just("exist c"),
)
queries = st.fixed_dictionaries(
    {
        "service_type": st.sampled_from(["T", "U"]),
        "constraint": constraints,
        "preference": st.sampled_from(["", "first", "min a", "max a", "min c", "max c"]),
        "max_matches": st.integers(0, 4),
        "structural": st.booleans(),
    }
)


def oracle(world, request, candidates, now):
    """Full scan in canonical order + Preference.apply: no index, no plan."""
    constraint = fresh_parse(request.constraint)
    matched = []
    for offer in candidates:
        if offer.expired(now):
            continue
        resolved = resolve_properties(offer.properties, evaluator)
        if constraint.evaluate(resolved):
            matched.append(replace(offer, properties=resolved))
    ordered = parse_preference(request.preference).apply(matched, random.Random(0))
    if request.max_matches > 0:
        ordered = ordered[: request.max_matches]
    return [(offer.offer_id, offer.properties) for offer in ordered]


def answer(offers):
    return [(offer.offer_id, offer.properties) for offer in offers]


@settings(max_examples=200, deadline=None)
@given(
    specs=st.lists(offer_specs, max_size=14),
    query=queries,
    now=st.sampled_from([0.0, 10.0]),
    churn=st.lists(
        st.tuples(st.sampled_from(["modify", "restore", "retype"]), st.integers(0, 13)),
        max_size=3,
    ),
    modified=st.fixed_dictionaries({}, optional={"a": _a_values, "c": st.just(0.5)}),
)
def test_local_trader_matches_the_oracle(specs, query, now, churn, modified):
    trader = LocalTrader("plan", dynamic_evaluator=evaluator)
    for service_type in _types():
        trader.add_type(service_type)
    for type_name, properties, lease in specs:
        ref = ServiceRef.create("Desk", Address("desk", 1), 4711)
        trader.export(type_name, ref, dict(properties), now=0.0, lease_seconds=lease)
    ids = [offer.offer_id for offer in trader.offers.all()]
    for action, index in churn:
        if not ids:
            break
        offer_id = ids[index % len(ids)]
        if action == "modify":
            trader.modify(offer_id, dict(modified))
        elif action == "restore":  # withdraw, then re-add the saved offer
            trader.offers.add(trader.withdraw(offer_id))
        else:  # idempotent re-add of the same id under another type
            offer = trader.offers.get(offer_id)
            other = "U" if offer.service_type == "T" else "T"
            trader.offers.add(replace(offer, service_type=other))
    request = ImportRequest(**query)
    type_names = trader.types.matching_types(request.service_type, request.structural)
    expected = oracle(trader, request, trader.offers.of_types(type_names), now)
    assert answer(trader.import_(request, now)) == expected


@settings(max_examples=120, deadline=None)
@given(
    specs=st.lists(offer_specs, max_size=14),
    query=queries,
    now=st.sampled_from([0.0, 10.0]),
    modify_at=st.lists(st.integers(0, 13), max_size=2),
    modified=st.fixed_dictionaries({}, optional={"a": _a_values, "c": st.just(0.5)}),
)
def test_shard_router_matches_the_oracle(specs, query, now, modify_at, modified):
    router = build_local_router(["s0", "s1", "s2"], dynamic_evaluator=evaluator)
    for service_type in _types():
        router.add_type(service_type)
    for type_name, properties, lease in specs:
        ref = ServiceRef.create("Desk", Address("desk", 1), 4711)
        router.export(type_name, ref, dict(properties), 0.0, lease_seconds=lease)
    ids = sorted(offer.offer_id for offer in router.offers.all())
    for index in modify_at:
        if ids:
            router.modify(ids[index % len(ids)], dict(modified))
    request = ImportRequest(**query)
    type_names = router.types.matching_types(request.service_type, request.structural)
    position = {name: index for index, name in enumerate(type_names)}
    # The router's canonical order: types in matching order, offers in
    # per-type export order (the number an offer id ends with).
    candidates = sorted(
        (offer for offer in router.offers.all() if offer.service_type in position),
        key=lambda offer: (
            position[offer.service_type], int(offer.offer_id.rpartition(":")[2])
        ),
    )
    expected = oracle(router, request, candidates, now)
    assert answer(router.import_(request, now)) == expected


# -- which path a query takes -------------------------------------------------

CITIES = 20


def rental_trader(count=1000):
    trader = LocalTrader("paths")
    trader.add_type(
        ServiceType(
            "Rental",
            _INTERFACE,
            [("ChargePerDay", DOUBLE), ("City", STRING), ("Rating", LONG)],
        )
    )
    rng = random.Random(12)
    for index in range(count):
        ref = ServiceRef.create(f"Desk{index}", Address("desk", 1), 4711)
        trader.export(
            "Rental",
            ref,
            {
                "ChargePerDay": rng.randint(2000, 40000) / 100.0,
                "City": f"City{index % CITIES}",
                "Rating": index % 5 + 1,
            },
        )
    return trader


def _counter(name):
    return METRICS.counter(name, ("paths",))


def _oracle_for(trader, request):
    return oracle(trader, request, trader.offers.of_types(["Rental"]), 0.0)


def test_low_selectivity_equality_takes_the_ordered_walk():
    """``Rating == 3`` holds a fifth of the offers: a top-10 walk expects
    to examine ~50 of them, far fewer than the 200-offer bucket."""
    trader = rental_trader()
    request = ImportRequest(
        "Rental", "Rating == 3", preference="min ChargePerDay", max_matches=10
    )
    before = METRICS.counter("trader.ordered_scans", ("paths",))
    result = trader.import_(request)
    assert METRICS.counter("trader.ordered_scans", ("paths",)) == before + 1
    assert answer(result) == _oracle_for(trader, request)


def test_top50_city_query_uses_the_equality_bucket():
    """One city in twenty: a top-50 walk expects ~1000 offers, the bucket
    holds 50 — the planner takes the bucket."""
    trader = rental_trader()
    request = ImportRequest(
        "Rental", "City == 'City7'", preference="max ChargePerDay", max_matches=50
    )
    scans = METRICS.counter("trader.ordered_scans", ("paths",))
    hits = METRICS.counter("offers.index_hits", ("paths",))
    result = trader.import_(request)
    assert METRICS.counter("trader.ordered_scans", ("paths",)) == scans
    assert METRICS.counter("offers.index_hits", ("paths",)) == hits + 1
    assert len(result) == 50
    assert answer(result) == _oracle_for(trader, request)


def test_bounded_first_import_examines_only_what_it_returns(monkeypatch):
    """A bounded ``first`` import stops at ``max_matches`` matches: every
    offer matches here, so it examines exactly five of the thousand."""
    trader = rental_trader()
    examined = []

    def counting(properties, evaluator):
        examined.append(properties)
        return resolve_properties(properties, evaluator)

    monkeypatch.setattr(trader_module, "resolve_properties", counting)
    request = ImportRequest("Rental", "Rating >= 1", max_matches=5)
    result = trader.import_(request)
    assert len(examined) == 5
    assert answer(result) == _oracle_for(trader, request)
    # A fifth of the offers match: still O(max_matches), not O(type).
    examined.clear()
    request = ImportRequest("Rental", "Rating == 4", max_matches=5)
    result = trader.import_(request)
    assert len(examined) <= 5 * 5
    assert answer(result) == _oracle_for(trader, request)


def test_cross_type_ties_rank_in_type_order():
    """Equal keys across types rank by type order on the ordered walk
    exactly as on the general path, whatever the export order."""
    trader = LocalTrader("ties")
    for service_type in _types():
        trader.add_type(service_type)
    ref = ServiceRef.create("Desk", Address("desk", 1), 4711)
    trader.export("U", ref, {"c": 1.5})
    trader.export("T", ref, {"c": 1.5})
    walked = trader.import_(ImportRequest("T", preference="min c", max_matches=1))
    ranked = trader.import_(ImportRequest("T", preference="min c"))
    assert [offer.offer_id for offer in walked] == ["ties:T:1"]
    assert [offer.offer_id for offer in ranked] == ["ties:T:1", "ties:U:1"]


def test_readded_offer_under_another_type_joins_its_end():
    """Re-adding an id under a new type appends it to that type; the
    equality bucket must order it there too, as a full scan does."""
    trader = LocalTrader("retype")
    for service_type in _types():
        trader.add_type(service_type)
    ref = ServiceRef.create("Desk", Address("desk", 1), 4711)
    moved = trader.export("T", ref, {"b": "x"})
    trader.export("U", ref, {"b": "x"})
    trader.offers.add(replace(trader.offers.get(moved), service_type="U"))
    request = ImportRequest("U", "b == 'x'")
    expected = oracle(trader, request, trader.offers.of_types(["U"]), 0.0)
    assert [offer_id for offer_id, __ in expected] == ["retype:U:1", moved]
    assert answer(trader.import_(request)) == expected
