"""Exact unit-group computations in modular group algebras F[A x| C_q]."""

from .algebra import AlgElem, GroupAlgebra, Subspace
from .cqstruct import (CoeffElem, FBCtx, FBElem, Idempotents, ProjVec, UnitClass,
                       b_polynomial, classify_unit, complement_search_B_in_VstarFB,
                       distinct_projection_unit, enumerate_VFB,
                       from_projections, idempotents, projections)
from .field import FieldCtx, FieldElem, QDecomp, make_field, q_decompose
from .group import (AbelianSpec, ActionSpec, GroupElem, GroupSpec, OrbitTable,
                    make_group, orbits)
from .unitgroup import (CentralizerReport, ClassLength, cayley, cayley_inv,
                        centralizer_in_gamma, class_length, sample_disjoint_classes)
from .verifier import (Analysis, Certificate, Instance, analyze,
                       counting_certificate, m_gt_1_no_complement, make_instance)

__version__ = "0.1.0"

__all__ = [
    "FieldCtx", "FieldElem", "QDecomp", "make_field", "q_decompose",
    "AbelianSpec", "ActionSpec", "GroupElem", "GroupSpec", "OrbitTable",
    "make_group", "orbits",
    "AlgElem", "GroupAlgebra", "Subspace",
    "CoeffElem", "FBCtx", "FBElem", "Idempotents", "ProjVec", "UnitClass",
    "idempotents", "projections", "from_projections", "classify_unit",
    "b_polynomial", "enumerate_VFB", "distinct_projection_unit",
    "complement_search_B_in_VstarFB",
    "CentralizerReport", "ClassLength", "centralizer_in_gamma",
    "class_length", "cayley", "cayley_inv", "sample_disjoint_classes",
    "Instance", "Analysis", "Certificate", "make_instance", "analyze",
    "counting_certificate", "m_gt_1_no_complement",
    "__version__",
]
