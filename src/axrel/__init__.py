"""axrel: a model-checking workbench for axiomatic special and general
relativity over an exact square-root-tower field.

The package parses the two-sorted first-order language {B, IB, Ph, Q, +,
*, <, W}, builds exact Minkowski and metric-chart models, evaluates the
SpecRel / AccRel / GenRel axiom systems against them with witnesses and
counterexamples, and computes the quantitative predictions (time
dilation, twin-paradox aging, gravitational clock ratios, geodesics).

Importing the package loads none of its layers.  Each public name loads
its home module on first use (PEP 562), so ``from axrel import ER`` loads
only the field layer, and only the chart layer (``genrel``) loads numpy.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it serves through the package
_EXPORTS = {
    "field": ("ApproxReal", "DivisionByZero", "ER", "ExactReal", "NegativeRadicand",
              "parse_exact", "sqrt"),
    "kinematics": ("AffineMap", "EffectReport", "PoincareMap", "SuperluminalVelocity", "boost",
                   "coord4", "check_mu_invariance", "check_noftl", "effects", "mu",
                   "plane_rotation", "worldview_transform"),
    "model": ("Body", "ChartDomain", "DifferentiableChart", "InertialLine", "ObserverSpec",
              "PhotonLine", "PiecewiseInertial", "SmoothNumeric", "Structure",
              "galilean_structure", "load_model", "parse_model", "serialize_model",
              "standard_minkowski"),
    "verdict": ("Budget", "Verdict"),
    "semantics": ("check_axiom", "check_theory", "evaluate", "witness_inertial",
                  "witness_photon"),
    "ind": ("check_ind_instance",),
    "syntax": ("Formula", "Sort", "Theory", "axiom_corpus", "expand_definitions", "ind_battery",
               "instantiate_ind", "named_axiom", "parse", "print_formula"),
    "accel": ("AcceleratedScenario", "ShipConfig", "check_axcmv", "comoving_inertial",
              "gtd_clock_ratio", "proper_time", "twin_paradox"),
    "genrel": ("MetricChart", "check_axdiff", "check_axev_minus", "check_axph_minus",
               "check_axself_minus", "check_axsymt_minus", "check_chart_theory", "flat_chart",
               "geodesic", "normal_frame", "rindler_chart"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
