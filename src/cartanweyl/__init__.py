"""Conformal Cartan connections on a chart: construction, two-stage dressing
to the Riemannian parametrization, finite Weyl transformation laws, and the
BRS ghost algebra, every identity machine-checked against independent routes.
"""

from .jets import Chart, Jet
from .exprs import parse_expr, print_expr, eval_jet
from .grassmann import GradedScalar
from .forms import MForm, wedge, gcomm, ext_d, eta_t, algebra_residual
from .cartan import (KleinModel, CartanConnection, Curvature, VielbeinField,
                     GaugeElement, assemble, conjugate, covariant_d, curvature,
                     curvature_form, gauge_transform, build_normal,
                     normality_residual)
from .dressing import (DressedFields, DressedPair, extract_u1, full_pipeline,
                       compatibility_residuals, gr_dress, vielbein_of)
from .weyl import (WeylElement, weyl_consistency, weyl_matrices,
                   weyl_transform_dressed, weyl_transform_midlevel)
from .scenarios import Scenario, catalog
from .checks import run_check, compute_tensors, dof_report

__all__ = [
    "Chart", "Jet", "parse_expr", "print_expr", "eval_jet",
    "GradedScalar",
    "MForm", "wedge", "gcomm", "ext_d", "eta_t", "algebra_residual",
    "KleinModel", "CartanConnection", "Curvature", "VielbeinField",
    "GaugeElement", "assemble", "conjugate", "covariant_d", "curvature",
    "curvature_form", "gauge_transform", "build_normal", "normality_residual",
    "DressedFields", "DressedPair", "extract_u1", "full_pipeline",
    "compatibility_residuals", "gr_dress", "vielbein_of",
    "WeylElement", "weyl_consistency", "weyl_matrices",
    "weyl_transform_dressed", "weyl_transform_midlevel",
    "Scenario", "catalog", "run_check", "compute_tensors", "dof_report",
]

__version__ = "0.1.0"
