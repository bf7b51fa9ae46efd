"""Pinned world bytes: distance fields and generated scenarios.

The golden cells pin what a sweep computes from a world; this module pins
the worlds themselves, so a change to the EDT, the planner, the simulator
or the sensor model that moves one byte fails here.  Regenerating within
one run (``tests/scenarios`` ``TestDeterminism``) cannot catch that: both
runs use the same code.

Every digest is a SHA-256 over each array's name, dtype, shape and raw
bytes:

* ``DistanceField.build(grid, 1.5, kind).data`` for the paper's combined
  maze world and for one generated grid per scenario family, for every
  ``FieldKind``;
* each of those scenarios' ``grid.cells``, ``tour`` and recorded sequence
  arrays (every array of ``RecordedSequence.to_npz_payload``, by key).

A deliberate numerical change edits ``FIELD_DIGESTS`` or
``SCENARIO_DIGESTS`` in the commit that explains it; a failure prints the
new digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.maps.distance_field import DistanceField, FieldKind
from repro.maps.maze import build_drone_maze_world
from repro.scenarios import ScenarioSpec, build_scenario

#: Truncation of every pinned field (the paper's r_max).
R_MAX = 1.5

#: Short flights keep the module fast (and share the scenario cache with
#: ``tests/scenarios``); the pins hold for any flight length.
FLIGHT_S = 8.0

FAMILIES = ("maze", "office", "corridor", "hall", "degraded")
WORLDS = ("paper-maze",) + FAMILIES

FIELD_DIGESTS = {
    "paper-maze/float32": "f3c2ed44afd95f33d81cc884337acd9fb68d19d2c898596be04dd271241b580e",
    "paper-maze/float16": "7c3f4e4aa4601a1c070863b70deb8cc2a9b0f91d3237df21511b0f0f05eeacbc",
    "paper-maze/quantized_u8": "dd52cd57061eb3bcedb7947611db3aea1b97b27cb3b56a0cc897aab9c7fb9757",
    "maze/float32": "13da472628df360b118cdcbf20eeaafddb5e60c9bdab731efe276f06e299beac",
    "maze/float16": "4a3e0da88017ee332f2b007d08ca9e3a04d84a31fccaddd5e78fd0a8d0ec1507",
    "maze/quantized_u8": "014e23ae9ddbd4a604a3331392645e582e6b3f8ccc1704f7d625a26dc509977e",
    "office/float32": "3710123eb51ae11e101a485de1b08166c9f020d8cb2bf54ea877434bece20b79",
    "office/float16": "cff2053b8da62b452be5f303a831a4de7c0804184b8c5a834dd3487af41ac7e5",
    "office/quantized_u8": "46c203f083debd4e1fa31b11655ae18709fbb806627ee9d88a75f5319c4f881f",
    "corridor/float32": "5f3e331c56037fba65471f2d3b564873d68aff09a51eb9311ef5c297ba725622",
    "corridor/float16": "32c05e3b976a3ee8612dc0ab70ab0cb273cd6754a70753ea3af1bc7788179595",
    "corridor/quantized_u8": "de77a52720619fe48fb85b33ad061b995e8138e2ac35396ce489aa113caa95f3",
    "hall/float32": "b753c24a30a55ebf4d25fcba79bd22ff4d82eea67e76bb7ffbd7a87aa447e46a",
    "hall/float16": "3e8f2b42221f70fcabf9a8ca5a3efe50eec9af5fcbd6d29cccccef882c931752",
    "hall/quantized_u8": "30487406d8c3b20d942927f321637de988d1755fd34a82047e7b1167fae9e8b7",
    "degraded/float32": "13da472628df360b118cdcbf20eeaafddb5e60c9bdab731efe276f06e299beac",
    "degraded/float16": "4a3e0da88017ee332f2b007d08ca9e3a04d84a31fccaddd5e78fd0a8d0ec1507",
    "degraded/quantized_u8": "014e23ae9ddbd4a604a3331392645e582e6b3f8ccc1704f7d625a26dc509977e",
}

SCENARIO_DIGESTS = {
    "maze/cells": "bfda511136745f673a010b6d68e232d8973be121f6daab0af27adb988cb02959",
    "maze/tour": "78f228fd18c19795ad3591b7c7b2f9a17c848c077b57be40330d2eb4e1cec69a",
    "maze/sequence": "25613e4bd2a68c16472f7a5f114abbdd27676b42c030abe581e27ab6c19739ab",
    "office/cells": "d2a470c5ae2c9972c4d30603f36f107ed9503153c7b40743e8a68420bc85e323",
    "office/tour": "21dd20cfd73e4cc704e3d244365274ee4ba9f9276230c164ba968aa0298f7fc3",
    "office/sequence": "1c16d0a9ca8e8f4ce23ab238d5070cbacfc4dbbe29c1167dc2973b94b6ac97a7",
    "corridor/cells": "2563a4fe5a42da218f52113db2dba5627c5a061ab9a6f1227fe2292f1a21c735",
    "corridor/tour": "cda488a4d07823c866542821265f262cc6d8b7fe92664c67f92d76b3e8632bd4",
    "corridor/sequence": "43c9514744e6e29dd8435686905eedb80738e5aed51bc7b4b968e4b984bcea93",
    "hall/cells": "9e1c6cb47f7c834686114e2757fb67ddb1d0b48875584e3cb15fbcfd399b01c5",
    "hall/tour": "bd01f6a898159a947f636a87e44cb578e9adc21bd12117e63b5b8ee3de98a73c",
    "hall/sequence": "4b08dee4d801d6e0dd0660c6a8ba0a492713efaa207b6a78fda6eb135abe89f6",
    "degraded/cells": "bfda511136745f673a010b6d68e232d8973be121f6daab0af27adb988cb02959",
    "degraded/tour": "78f228fd18c19795ad3591b7c7b2f9a17c848c077b57be40330d2eb4e1cec69a",
    "degraded/sequence": "c5a0c3fc93e555808db32b925390b26627fa6f3ceff60c2435fe6301ed24737f",
}


def _digest(*named: tuple[str, np.ndarray]) -> str:
    sha = hashlib.sha256()
    for name, array in named:
        array = np.ascontiguousarray(array)
        sha.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _scenario(family: str):
    return build_scenario(ScenarioSpec.of(family, 1, flight_s=FLIGHT_S))


def _grid(world: str):
    if world == "paper-maze":
        return build_drone_maze_world().grid
    return _scenario(world).grid


def _scenario_parts(family: str) -> dict[str, str]:
    scenario = _scenario(family)
    payload = scenario.sequence.to_npz_payload()
    return {
        "cells": _digest(("cells", scenario.grid.cells)),
        "tour": _digest(("tour", scenario.tour)),
        "sequence": _digest(*sorted(payload.items())),
    }


@pytest.mark.parametrize("world", WORLDS)
def test_distance_field_bytes(world):
    grid = _grid(world)
    for kind in FieldKind:
        data = DistanceField.build(grid, R_MAX, kind).data
        key = f"{world}/{kind.value}"
        assert _digest(("data", data)) == FIELD_DIGESTS[key], key


@pytest.mark.parametrize("family", FAMILIES)
def test_scenario_bytes(family):
    for part, digest in _scenario_parts(family).items():
        key = f"{family}/{part}"
        assert digest == SCENARIO_DIGESTS[key], key
