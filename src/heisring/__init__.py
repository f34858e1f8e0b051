"""Horizontal geometry of surfaces of revolution in the Heisenberg group.

Library + CLI for profile-curve validation, revolution coordinates,
Legendrian foliations, horizontal mean curvature, and the modulus of the
boundary-connecting horizontal curve family in a revolution ring.
"""

from .heis import HPoint, TangentVector, dist, gauge, inverse, mul
from .modulus import (RevolutionRing, analytic_modulus, make_ring, mc_modulus,
                      numeric_modulus, rho0, rho0_density)
from .profiles import CATALOG_NAMES, ProfileCurve, catalog, parse_profile, validate
from .surface import SurfacePatch, horizontal_area, mean_curvature

__version__ = "0.1.0"

__all__ = [
    "HPoint", "TangentVector", "mul", "inverse", "gauge", "dist",
    "ProfileCurve", "catalog", "parse_profile", "validate", "CATALOG_NAMES",
    "SurfacePatch", "horizontal_area", "mean_curvature",
    "RevolutionRing", "make_ring", "analytic_modulus", "numeric_modulus",
    "mc_modulus", "rho0", "rho0_density",
]
