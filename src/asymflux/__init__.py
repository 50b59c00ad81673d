"""Numerical asymptotic invariants of asymptotically flat and hyperbolic metrics.

The package computes ADM-type masses and centers of mass, their
Einstein-tensor (Ricci) counterparts, and hyperbolic mass functionals, by
integrating exact metric 2-jets over coordinate spheres and extrapolating
the flux series in the radius.  It also ships executable checks of the
structural identities (integrated Bianchi, conformal-Killing kernel
identity) that make the two families of definitions agree.
"""

from .catalog import MetricSpec, background_of, jets, metric_jet
from .charges import charge_series, michel_integrand, rt_diagnostics
from .errors import AsymfluxError
from .fields import kernel_basis, killing_basis
from .geometry import ChartKind, curvature
from .limits import FluxSample, RadialSeries, decay_rate, extrapolate
from .quadrature import integrate_annulus, integrate_sphere, omega, sphere_rule
from .verify import equivalence_report, kernel_check_lemma22, pohozaev_check

__version__ = "0.1.0"

__all__ = [
    "MetricSpec", "background_of", "jets", "metric_jet", "charge_series",
    "michel_integrand", "rt_diagnostics", "AsymfluxError", "kernel_basis",
    "killing_basis", "ChartKind", "curvature",
    "FluxSample", "RadialSeries", "decay_rate", "extrapolate",
    "integrate_annulus", "integrate_sphere", "omega", "sphere_rule",
    "equivalence_report", "kernel_check_lemma22", "pohozaev_check",
    "__version__",
]
