"""The value classes are plain classes: each keeps the constructor, repr,
equality, hash and immutability a frozen dataclass would give it."""

from fractions import Fraction

import pytest

from quasiloop.diagrams import (
    CrossingRef,
    DiskArc,
    ExplicitDiagram,
    LaneDiagram,
    SurfaceCrossing,
    _RArc,
    _RLoop,
)
from quasiloop.quasilie import PandUDiagnostics, QuasiJacobiReport
from quasiloop.ring import LoopCombination
from quasiloop.selftest import SuiteResult
from quasiloop.surface import QuasiSurfaceSpec
from quasiloop.traceeval import DerivationReport, RepresentationPoint

ARC = DiskArc(0, 1, 2)
DIAGRAM = LaneDiagram((ARC,), (((0, 1),),))
ZERO = LoopCombination()

# (value, its exact repr, its field names); every class but SuiteResult is frozen
VALUES = [
    (ARC, "DiskArc(disk=0, lane=1, depth=2, reverse=False)", ("disk", "lane", "depth", "reverse")),
    (
        DIAGRAM,
        "LaneDiagram(arcs=(DiskArc(disk=0, lane=1, depth=2, reverse=False),), paths=(((0, 1),),))",
        ("arcs", "paths"),
    ),
    (SurfaceCrossing((0, 0), (1, 0), -1), "SurfaceCrossing(first=(0, 0), second=(1, 0), sign=-1)",
     ("first", "second", "sign")),
    (
        ExplicitDiagram((DIAGRAM,), ()),
        "ExplicitDiagram(loops=(LaneDiagram(arcs=(DiskArc(disk=0, lane=1, depth=2, reverse=False),),"
        " paths=(((0, 1),),)),), crossings=())",
        ("loops", "crossings"),
    ),
    (CrossingRef(0, 1, True, 1), "CrossingRef(loop=0, arc=1, entry=True, sign=1)",
     ("loop", "arc", "entry", "sign")),
    (
        QuasiSurfaceSpec([["g1"]], ["v"], [], {"g1": "v"}, "v"),
        "QuasiSurfaceSpec(disks=(('g1',),), vertices=('v',), edges=(),"
        " gluing=mappingproxy({'g1': 'v'}), basepoint='v')",
        ("disks", "vertices", "edges", "gluing", "basepoint"),
    ),
    (QuasiJacobiReport(ZERO, ZERO), "QuasiJacobiReport(lhs=LoopCombination(0), rhs=LoopCombination(0))",
     ("lhs", "rhs")),
    (
        PandUDiagnostics(ZERO, ZERO, ZERO, ZERO, True, False),
        "PandUDiagnostics(p_xyz=LoopCombination(0), u_omega=LoopCombination(0),"
        " u_omega_bar=LoopCombination(0), jacobiator=LoopCombination(0), p_decomposes=True,"
        " jacobiator_matches=False)",
        ("p_xyz", "u_omega", "u_omega_bar", "jacobiator", "p_decomposes", "jacobiator_matches"),
    ),
    (
        RepresentationPoint.create(1, [[[2]]]),
        "RepresentationPoint(n=1, images=(((Fraction(2, 1),),),), inverses=(((Fraction(1, 2),),),))",
        ("n", "images", "inverses"),
    ),
    (DerivationReport(Fraction(1, 2), Fraction(1)),
     "DerivationReport(lhs=Fraction(1, 2), rhs=Fraction(1, 1))", ("lhs", "rhs")),
    (SuiteResult("s", 2), "SuiteResult(name='s', cases=2, failures=[], warning=None)",
     ("name", "cases", "failures", "warning")),
]
IDS = [type(value).__name__ for value, _, _ in VALUES]


@pytest.mark.parametrize(("value", "text", "names"), VALUES, ids=IDS)
def test_repr_fields_and_equality(value, text, names):
    assert repr(value) == text
    assert type(value).__match_args__ == names
    fields = tuple(getattr(value, name) for name in names)
    twin = type(value).__new__(type(value))
    twin.__dict__.update(value.__dict__)
    assert value == twin and not value != twin

    # equal only to its own class: not to its field tuple, nor to an
    # instance of a subclass or of another class with the same fields
    class Sub(type(value)):
        pass

    sub = Sub.__new__(Sub)
    sub.__dict__.update(value.__dict__)
    assert value != fields and value != sub and sub != value


def test_classes_with_equal_field_values_are_unequal():
    assert DerivationReport(ZERO, ZERO) != QuasiJacobiReport(ZERO, ZERO)
    assert CrossingRef(0, 1, 2, False) != DiskArc(0, 1, 2, False)
    assert LaneDiagram((), ()) != ExplicitDiagram((), ())


@pytest.mark.parametrize(("value", "text", "names"), VALUES[:-1], ids=IDS[:-1])
def test_frozen_values_hash_as_their_fields_and_refuse_changes(value, text, names):
    fields = tuple(getattr(value, name) for name in names)
    try:
        expected = hash(fields)
    except TypeError:  # a spec holds its gluing as a read-only view of a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected
    for name in (names[0], "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields


def test_mutable_values_are_unhashable_with_fresh_defaults():
    arc = _RArc(0, 1, 1, False, 0, 1)
    loops = [_RLoop((), [arc], (), [0], []) for _ in range(2)]
    results = [SuiteResult("s", 1) for _ in range(2)]
    for value in (arc, *loops, *results):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    assert loops[0].rotations == {} and loops[0].rotations is not loops[1].rotations
    assert results[0].failures == [] and results[0].failures is not results[1].failures
    arc.depth = 2
    assert arc == _RArc(0, 1, 2, False, 0, 1)


def test_constructors_keep_their_signatures_and_checks():
    assert DiskArc(0, 1, 2) == DiskArc(disk=0, lane=1, depth=2, reverse=False)
    match DiskArc(0, 1, 2, True):
        case DiskArc(disk, lane, depth, reverse):
            assert (disk, lane, depth, reverse) == (0, 1, 2, True)
    rho = RepresentationPoint.create(1, [[[2]]])
    copy = RepresentationPoint(rho.n, rho.images, rho.inverses)
    assert copy == rho and hash(copy) == hash(rho) and copy._letters == rho._letters
    with pytest.raises(TypeError):
        RepresentationPoint(rho.n, rho.images, rho.inverses, rho._letters)
    with pytest.raises(ValueError, match="crossing sign must be"):
        SurfaceCrossing((0, 0), (1, 0), 2)
    with pytest.raises(ValueError, match="unknown loop 1"):
        ExplicitDiagram((DIAGRAM,), (SurfaceCrossing((0, 0), (1, 0), 1),))
    with pytest.raises(ValueError, match="case count must be >= 0"):
        SuiteResult("s", -1)
    with pytest.raises(ValueError, match="gluing must be a mapping"):
        QuasiSurfaceSpec([["g1"]], ["v"], [], [("g1", "v")], "v")
