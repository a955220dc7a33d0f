"""Exact loop brackets and braces on combinatorially presented quasi-surfaces.

A quasi-surface here is a disjoint union of oriented disks whose boundary
gates are glued to vertices of a finite graph.  The package computes, with
exact integer arithmetic, the intersection forms of loops on such a space
(homological and homotopy versions), the gate braces, and the quasi-Lie
pair they form, and certifies the defining identities both symbolically
and at rational matrix representation points.
"""

__version__ = "0.1.0"

from .words import ConjClass, Word, abelianize, canonical_conjugacy
from .ring import GroupRingElement, LoopCombination, project_to_classes
from .fox import FoxDerivative, algebraic_brace, sandwich_derivation
from .surface import QuasiSurface, QuasiSurfaceSpec, build, load_spec
from .diagrams import (
    DiskArc,
    ExplicitDiagram,
    LaneDiagram,
    SurfaceCrossing,
    combine_generic,
    diagram_from_json,
    diagram_to_json,
    diagram_to_word,
    dual_v,
    word_to_diagram,
)
from .homology import first_form, gram_matrix, h1_class, gate_dual, second_form
from .homotopy import bullet, gate_brace_geometric, kk_pairing, second_bracket
from .quasilie import (
    PandUDiagnostics,
    QuasiJacobiReport,
    delta3,
    delta3_companion,
    delta_sign,
    jacobiator,
    mu_total,
    p_and_u_diagnostics,
    s_bracket,
    verify_quasi_jacobi,
)
from .traceeval import (
    RepresentationPoint,
    load_representation,
    random_representation,
    random_unimodular,
    verify_derivation_n1,
    verify_sl2_consistency,
)

__all__ = [
    "ConjClass",
    "DiskArc",
    "ExplicitDiagram",
    "FoxDerivative",
    "GroupRingElement",
    "LaneDiagram",
    "LoopCombination",
    "PandUDiagnostics",
    "QuasiJacobiReport",
    "QuasiSurface",
    "QuasiSurfaceSpec",
    "RepresentationPoint",
    "SurfaceCrossing",
    "Word",
    "abelianize",
    "algebraic_brace",
    "build",
    "bullet",
    "canonical_conjugacy",
    "combine_generic",
    "delta3",
    "delta3_companion",
    "delta_sign",
    "diagram_from_json",
    "diagram_to_json",
    "diagram_to_word",
    "dual_v",
    "first_form",
    "gate_brace_geometric",
    "gate_dual",
    "gram_matrix",
    "h1_class",
    "jacobiator",
    "kk_pairing",
    "load_representation",
    "load_spec",
    "mu_total",
    "p_and_u_diagnostics",
    "project_to_classes",
    "random_representation",
    "random_unimodular",
    "s_bracket",
    "sandwich_derivation",
    "second_bracket",
    "second_form",
    "verify_derivation_n1",
    "verify_quasi_jacobi",
    "verify_sl2_consistency",
    "word_to_diagram",
]
