"""Exact polyhedral models of the crystals B(infinity) and B(lambda).

The package builds, for every finite simple Lie type, the system of linear
inequalities cutting out the crystal inside the semi-infinite lattice
Z^infinity, either by closing a generator set under the piecewise-linear
substitution operators or from closed-form tables, and verifies the two
against a direct crystal-operator construction and the Weyl dimension
formula.
"""

from .rootdata import CapExceeded, cartan_matrix, positive_roots, \
    weyl_dim, longest_word_length
from .zcrystal import IotaSequence, ZVector, CrystalNode, generate_binf, \
    generate_blambda
from .forms import LinearForm, FormSet, beta, xi_form, lambda_form, closure
from .tables import binf_table, xi_first_tables, UnsupportedTableError
from .polytope import Polyhedron, RealizationError, VerifyReport, build, \
    crystal_graph, enumerate_binf_truncated, enumerate_blambda, verify

__all__ = [
    "CapExceeded", "cartan_matrix", "positive_roots", "weyl_dim",
    "longest_word_length",
    "IotaSequence", "ZVector", "CrystalNode", "generate_binf",
    "generate_blambda",
    "LinearForm", "FormSet", "beta", "xi_form", "lambda_form", "closure",
    "binf_table", "xi_first_tables", "UnsupportedTableError",
    "Polyhedron", "RealizationError", "VerifyReport", "build",
    "crystal_graph", "enumerate_binf_truncated", "enumerate_blambda",
    "verify",
]

__version__ = "0.1.0"
