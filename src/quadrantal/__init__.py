"""Exact arithmetic for quadratic number rings and small number fields:
polynomials over Q, trace/norm/discriminant machinery, the full ideal
calculus of quadratic rings (splitting, factorization, class groups),
unit groups via Pell equations, cyclotomic splitting parameters, and
empirical checks of the ideal-distribution asymptotics.

Importing the package loads none of its layers.  The six names below are
resolved on first use (PEP 562), each from its own module, so a program
that needs only polynomials never imports the quadratic-ring layer.
`_forward` builds this module __getattr__ and those of arith, quadring, cli
and census; the value classes are immutable through integers.Frozen.
`mpmath` is imported only by the number-field embeddings and by the two
functions that return mpmath values (units.regulator_mp,
census.sigma_theoretical), and `decimal` by none: every printed real is an int
scaled by a power of ten and every rational bound an int pair
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


def _forward(namespace: dict, homes: dict):
    """The PEP 562 __getattr__ of the module whose globals are `namespace`:
    a name of `homes` resolves from its home module in this package on first
    read and is cached in `namespace`; any other name raises AttributeError."""
    def __getattr__(name):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        from importlib import import_module

        value = getattr(import_module(f"{__name__}.{homes[name]}"), name)
        return namespace.setdefault(name, value)  # later reads skip this call

    return __getattr__


__getattr__ = _forward(globals(), _EXPORTS)


def __dir__():
    return sorted(set(globals()) | set(__all__))
