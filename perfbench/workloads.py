"""Seeded inputs shared by the load generator and the server launcher.

Both processes import this module and derive the same data from the same
``--seed``: the server preloads the offers, the generator draws queries
and write traffic, and the ``import_read`` oracle rebuilds the store
in-process.  Nothing here touches the network or the clock.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType, STRING
from repro.trader.service_types import ServiceType
from repro.trader.trader import ImportRequest

WORKLOADS = ("import_read", "lease_churn", "mediated_cascade")

#: Offer-id namespace of the sharded deployment; the oracle shares it so
#: both mint identical ids.
ROUTER_ID = "bench"
SHARD_IDS = ("s0", "s1", "s2", "s3")
REPLICAS = 1

TYPE_NAMES = tuple(f"Rental{index}" for index in range(8))
CITIES = 20
RATINGS = 5

IMPORT_READ_OFFERS = 50_000
LEASE_CHURN_OFFERS = 20_000
LEASE_SECONDS = 600.0

#: Host cohorts of ``lease_churn``: every offer belongs to one exporter
#: host, and a host's heartbeat timer renews all of its offers at once.
CHURN_HOSTS = 2000


def service_type(name: str) -> ServiceType:
    return ServiceType(
        name,
        InterfaceType("RentalOps", [OperationType("Rent", [], LONG)]),
        [("ChargePerDay", DOUBLE), ("City", STRING), ("Rating", LONG)],
    )


def offer_ref(index: int) -> Dict[str, Any]:
    """The service reference an exporter host advertises."""
    host = f"10.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}"
    return ServiceRef.create(
        f"RentalDesk{index}", Address(host, 7000 + index % 1000), 300000 + index % 97
    ).to_wire()


def draw_properties(rng: random.Random) -> Dict[str, Any]:
    return {
        "ChargePerDay": rng.randint(2000, 40000) / 100.0,
        "City": f"City{rng.randrange(CITIES)}",
        "Rating": rng.randint(1, RATINGS),
    }


def preload(seed: int, count: int) -> List[Tuple[str, Dict[str, Any], Dict[str, Any]]]:
    """``(service_type, ref, properties)`` for every preloaded offer."""
    rng = random.Random(f"preload:{seed}")
    return [
        (rng.choice(TYPE_NAMES), offer_ref(index), draw_properties(rng))
        for index in range(count)
    ]


def import_query(rng: random.Random) -> Tuple[str, ImportRequest]:
    """One ``import_read`` query: ``(class, request)``.

    ``eq_range`` pins a city through the equality index and filters a few
    hundred candidates by range conjuncts; ``ordered`` takes the sorted
    index's top-10 fast path; ``top50`` ranks one city's offers by price
    and returns a large reply.  The price literal carries two decimals,
    so the distinct constraint strings far exceed the constraint cache.
    """
    service = rng.choice(TYPE_NAMES)
    draw = rng.random()
    if draw < 0.4:
        city = rng.randrange(CITIES)
        rating = rng.randint(1, RATINGS)
        ceiling = rng.randint(5000, 40000) / 100.0
        return "eq_range", ImportRequest(
            service,
            f"City == 'City{city}' and Rating >= {rating} and ChargePerDay < {ceiling:.2f}",
            max_matches=10,
        )
    if draw < 0.8:
        ceiling = rng.randint(3000, 40000) / 100.0
        rating = rng.randint(1, RATINGS - 1)
        return "ordered", ImportRequest(
            service,
            f"ChargePerDay < {ceiling:.2f} and Rating >= {rating}",
            preference="min ChargePerDay",
            max_matches=10,
        )
    city = rng.randrange(CITIES)
    return "top50", ImportRequest(
        service, f"City == 'City{city}'", preference="max ChargePerDay", max_matches=50
    )


#: The small fixed constraint set ``lease_churn`` imports draw from.
CHURN_IMPORTS = tuple(
    ImportRequest(
        name,
        f"City == 'City{city}' and Rating >= 3",
        preference="min ChargePerDay",
        max_matches=5,
    )
    for name in TYPE_NAMES[:4]
    for city in range(4)
)

# -- mediated_cascade ---------------------------------------------------------

PEERS = 3
SERVICES_PER_PEER = 4
CAR_MODELS = ("AUDI", "FIAT-Uno", "VW-Golf")
#: Cars per model per service: large enough that no fleet runs dry in a
#: run, so a failed booking can only come from the service itself.
FLEET = 10**9


def cascade_services() -> List[Dict[str, Any]]:
    """The car-rental services each peer exports, in export order."""
    services = []
    for peer in range(PEERS):
        for slot in range(SERVICES_PER_PEER):
            index = peer * SERVICES_PER_PEER + slot
            services.append(
                {
                    "peer": peer,
                    "service_id": 4800 + index,
                    "name": f"CarRental{index}",
                    "model": CAR_MODELS[index % len(CAR_MODELS)],
                    "charge": 40.0 + 7.5 * index,
                }
            )
    return services


def cascade_query(rng: random.Random) -> Tuple[ImportRequest, Dict[str, Any], str]:
    """One journey: the hub IMPORT, the SelectCar arguments, and the name
    of the service the IMPORT must rank first (the cheapest match)."""
    model = rng.choice(CAR_MODELS)
    floor = rng.randint(30, 105)
    request = ImportRequest(
        "CarRentalService",
        f"CarModel == '{model}' and ChargePerDay > {floor}",
        preference="min ChargePerDay",
        max_matches=3,
        hop_limit=1,
    )
    selection = {
        "CarModel": model,
        "BookingDate": f"1994-06-{rng.randint(1, 28):02d}",
        "Days": rng.randint(1, 14),
    }
    cheapest = min(
        (s for s in cascade_services() if s["model"] == model and s["charge"] > floor),
        key=lambda s: s["charge"],
    )
    return request, selection, cheapest["name"]
