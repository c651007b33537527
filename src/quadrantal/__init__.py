"""Exact arithmetic for quadratic number rings and small number fields:
polynomials over Q, trace/norm/discriminant machinery, the full ideal
calculus of quadratic rings (splitting, factorization, class groups),
unit groups via Pell equations, cyclotomic splitting parameters, and
empirical checks of the ideal-distribution asymptotics.

Importing the package loads none of its layers.  The six names below are
resolved on first use (PEP 562), each from its own module, so a program
that needs only polynomials never imports the quadratic-ring layer.
`mpmath` is imported only by the number-field embeddings and by the two
functions that return mpmath values (units.regulator_mp,
census.sigma_theoretical); printed decimals are integer fixed point
(quadrantal.reals).
"""

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "Poly": "polynomial",
    "NumberField": "numberfield",
    "FieldElement": "numberfield",
    "QuadraticField": "quadring",
    "QuadInt": "quadring",
    "QuadIdeal": "quadring",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
