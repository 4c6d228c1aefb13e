"""axrel: a model-checking workbench for axiomatic special and general
relativity over an exact square-root-tower field.

The package parses the two-sorted first-order language {B, IB, Ph, Q, +,
*, <, W}, builds exact Minkowski and metric-chart models, evaluates the
SpecRel / AccRel / GenRel axiom systems against them with witnesses and
counterexamples, and computes the quantitative predictions (time
dilation, twin-paradox aging, gravitational clock ratios, geodesics).
"""

from .field import ApproxReal, DivisionByZero, ER, ExactReal, NegativeRadicand, parse_exact, sqrt
from .kinematics import (
    AffineMap, EffectReport, PoincareMap, SuperluminalVelocity, boost, coord4,
    check_mu_invariance, check_noftl, effects, mu, plane_rotation,
    worldview_transform,
)
from .model import (
    Body, ChartDomain, DifferentiableChart, InertialLine, ObserverSpec,
    PhotonLine, PiecewiseInertial, SmoothNumeric, Structure,
    galilean_structure, load_model, parse_model, serialize_model,
    standard_minkowski,
)
from .semantics import (
    Budget, Verdict, check_axiom, check_ind_instance, check_theory, evaluate,
    witness_inertial, witness_photon,
)
from .syntax import (
    Formula, Sort, Theory, axiom_corpus, expand_definitions, ind_battery,
    instantiate_ind, named_axiom, parse, print_formula,
)
from .accel import (
    AcceleratedScenario, ShipConfig, check_axcmv, comoving_inertial,
    gtd_clock_ratio, proper_time, twin_paradox,
)
from . import exprs  # noqa: F401  (field.parse_exact imports it on first use)

__version__ = "0.1.0"

# The chart layer is the only one that needs numpy, so it loads on first
# use of one of its names (PEP 562), not with the package.
_GENREL_NAMES = frozenset((
    "MetricChart", "check_axdiff", "check_axev_minus", "check_axph_minus",
    "check_axself_minus", "check_axsymt_minus", "check_chart_theory", "flat_chart",
    "geodesic", "normal_frame", "rindler_chart",
))


def __getattr__(name):
    if name in _GENREL_NAMES:
        from . import genrel

        value = getattr(genrel, name)
        globals()[name] = value
        return value
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
