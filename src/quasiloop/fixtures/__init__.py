"""Built-in quasi-surface fixtures.

- ``qt2``: one disk with gates g1, g2 glued to a single vertex.  Rank 1;
  the generator z enters through g1 and leaves through g2.
- ``qg1``: one disk with four gates glued alternately to two isolated
  vertices (a once-punctured torus cut along two arcs).  Rank 2.
- ``qd2``: two disks (three and two gates) over a doubled edge between
  two vertices.  Rank 4; has loops through either disk and inside Y.
- ``qy1``: one disk with a single gate on a vertex carrying a self-loop.
  Rank 1, but no reduced loop crosses the gate, so every bracket
  vanishes; useful as a degenerate control.
"""

from __future__ import annotations

import json
import os

from ..surface import QuasiSurface, QuasiSurfaceSpec, build

FIXTURE_NAMES = ("qt2", "qg1", "qd2", "qy1")


def fixture_spec(name: str) -> QuasiSurfaceSpec:
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    with open(os.path.join(os.path.dirname(__file__), f"{name}.json"), encoding="utf-8") as fh:
        return QuasiSurfaceSpec.from_json_dict(json.load(fh))


def fixture(name: str) -> QuasiSurface:
    return build(fixture_spec(name))


def qt2() -> QuasiSurface:
    return fixture("qt2")


def qg1() -> QuasiSurface:
    return fixture("qg1")


def qd2() -> QuasiSurface:
    return fixture("qd2")


def qy1() -> QuasiSurface:
    return fixture("qy1")
