"""Conformal Cartan connections on a chart: construction, two-stage dressing
to the Riemannian parametrization, finite Weyl transformation laws, and the
BRS ghost algebra, every identity machine-checked against independent routes.
"""

from .jets import Chart
from .exprs import parse_expr, print_expr
from .forms import MForm, gcomm, eta_t, algebra_residual
from .cartan import (KleinModel, CartanConnection, VielbeinField,
                     GaugeElement, assemble, conjugate, covariant_d, curvature,
                     curvature_form, gauge_transform, build_normal,
                     normality_residual)
from .dressing import (DressedFields, DressedPair, dress, extract_u1, full_pipeline,
                       compatibility_residuals, gr_dress, vielbein_of)
from .weyl import (WeylElement, weyl_matrices,
                   weyl_transform_dressed, weyl_transform_midlevel)
from .scenarios import Scenario, catalog
from .checks import run_check, compute_tensors, dof_report

__all__ = [
    "Chart", "parse_expr", "print_expr",
    "MForm", "gcomm", "eta_t", "algebra_residual",
    "KleinModel", "CartanConnection", "VielbeinField",
    "GaugeElement", "assemble", "conjugate", "covariant_d", "curvature",
    "curvature_form", "gauge_transform", "build_normal", "normality_residual",
    "DressedFields", "DressedPair", "dress", "extract_u1", "full_pipeline",
    "compatibility_residuals", "gr_dress", "vielbein_of",
    "WeylElement", "weyl_matrices",
    "weyl_transform_dressed", "weyl_transform_midlevel",
    "Scenario", "catalog", "run_check", "compute_tensors", "dof_report",
]

__version__ = "0.1.0"
