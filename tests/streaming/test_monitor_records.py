"""FLAP-S monitor records, pinned byte for byte.

Each digest is the sha256 of ``json.dumps(records, sort_keys=True)``
over one seeded FLAP-S monitor run, one per configuration that changes
what an incident evaluates: diagnose-only, with rollback repair, on
the reference backend, and with minimization plus repair.  How the
monitor builds, records and collects its windows is an implementation
choice; the records it emits are the contract, so a change to the
former must leave every digest here unchanged.  CI re-runs this file
under two hash seeds.
"""

import hashlib
import json

import pytest

from repro.api import Session

STREAM_SEED = 7

# (flaps, Session knobs, sha256 of the sorted-key JSON of the records)
PINS = {
    "diagnose": (
        120, {},
        "63812ab21da266fc64607e492951079ed0363f8440edaf2956b18315ded7a425",
    ),
    "repair": (
        40, {"repair": True},
        "8c9278e52303bc9066d57268d9056e598d00984869bd88e8822de6ca8ab9feb6",
    ),
    "reference": (
        30, {"engine": "reference"},
        "903b90f9cbae8911c95d6bcb2e42b1f46b817cc07a53274619f6b32e7e297ed5",
    ),
    "minimize-repair": (
        30, {"minimize": True, "repair": True},
        "2fa5cd28ea2344b6b9b672b0fd186fc1bb58cd060733defc15ce99599f3da5dc",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_records_match_the_pinned_digest(name):
    flaps, knobs, digest = PINS[name]
    params = {"flaps": flaps, "stream_seed": STREAM_SEED}
    with Session("FLAP-S", scenario_params=params, **knobs) as session:
        records = session.monitor().records
    assert len(records) == flaps
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
