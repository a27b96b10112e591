"""Composition groups of univariate polynomial maps over non-reduced rings.

The package turns three families of finite coefficient rings (Z/p^n,
Z/m, K[t]/(t^e)) plus a symbolic universal ring into a workbench for the
automorphisms of the affine line over them: composition and inversion,
degree-filtered subgroup membership, solvable filtrations, Witt-vector
coordinates, coordinatized group laws, and linearized conjugation
actions on congruence kernels.

Submodules load on first use: ``import affaut`` puts each of them in
``sys.modules`` but compiles and runs none, and a public name such as
``affaut.compose`` loads only the module that defines it.
"""

import importlib.util
import sys

# the public names, by defining module
_EXPORTS = {
    "adjoint": (
        "AdjointMatrix", "ModuleDecomposition", "ad", "ad_matrix", "h_part",
        "kernel_element", "module_decomposition", "scalar_mul",
        "specialize_matrix", "universal_element",
    ),
    "autgroup": (
        "SubgroupSpec", "TruncPoly", "atilde_coefficient_valuation",
        "check_abelian_kernel", "compose", "composition_series", "identity_map",
        "iterate", "member", "nd_coordinates", "nd_element", "order",
        "reduce_precision", "sample_automorphism", "sample_filtered",
        "sample_kernel_element",
    ),
    "errors": (
        "AlgebraError", "InfiniteCoefficientRing", "IntegralityViolation",
        "KernelMismatch", "NoSolution", "NotAbelian", "NotAnAutomorphism",
        "NotAUnit", "NotDivisible", "PreconditionFailed", "RingMismatch",
        "ShapeMismatch", "TooLarge",
    ),
    "greenberg": (
        "ComponentSystem", "GroupLaw", "greenberg_transform",
        "group_law_capped", "group_law_shape", "verify_group_axioms",
    ),
    "inversion": ("invert", "invert_with_depth", "lift_aut", "oracle_invert"),
    "rings": (
        "IntegerRing", "IntModRing", "RingElem", "SymbolicRing",
        "TruncSeriesRing", "parse_ring_flag", "ring_from_descriptor",
        "universal_coefficient_ring",
    ),
    "witt": (
        "UniversalWittLaw", "WittVec", "derive_witt_laws", "ghost_map",
        "residue_to_witt", "witt_add", "witt_mul", "witt_to_residue",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def _register(module: str):
    """sys.modules["affaut.<module>"], to be executed on its first
    attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _register(_module)
del _module


def __getattr__(name: str):
    """A public name (PEP 562), loaded from its module on first use and
    kept in the package namespace from then on."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
