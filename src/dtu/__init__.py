"""Exact arithmetic for the Denjoy-Tichy-Uitz singular functions.

Evaluation of g_lambda (including the Minkowski question-mark function at
lambda = 1/2 and the golden-field cases lambda = 1/phi, 1/phi^2), continuant
comparison calculus, extremal continuants at fixed length and weighted sum,
derivative classification of quadratic irrationals, and certified bracketing
of the derivative threshold constants.

The names below are imported from their modules on first use (PEP 562), so
`import dtu` loads no submodule.  `dtu.classify` is the function, as
`from dtu import classify` gives it; the module is
`importlib.import_module("dtu.classify")`.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# each re-exported name and the module that defines it
_HOMES = {
    "cf": ("Orientation", "PeriodicCF", "cf_of", "continuant", "periodic_value",
           "quotient_matrix", "reverse", "value_of", "weighted_sum"),
    "classify": ("Classification", "KappaBracket", "classify",
                 "classify_verdict", "growth_rate", "kappa", "kappa2_bracket"),
    "extremal": ("ExtremalInstance", "balanced_max", "brute_extrema",
                 "max_construct", "min_construct"),
    "geval": ("CertifiedInterval", "LambdaKind", "g_finite_series",
              "g_interval", "g_mediant", "question_mark", "sample_farey"),
    "golden": ("PHI", "GoldenScalar"),
    "surd": ("QuadraticSurd", "compare_values"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """Importing a submodule binds it on the package; where a re-exported
    name has the submodule's name (`classify`), the name keeps its object."""

    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
