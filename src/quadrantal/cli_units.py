"""The units, pell and census commands, and their decimal precision.  Only
units, pell and a real field's census load the unit layer (quadrantal.units)."""

from __future__ import annotations

import os

from .arith import MAX_PRECISION
from .cli import InputError
from .quadring import QuadraticField


def decimal_precision(default: int = 50) -> int:
    env = os.environ.get("QUADRANTAL_PRECISION")
    if env is None:
        return default
    try:
        digits = max(30, int(env))
    except ValueError:
        raise InputError(f"QUADRANTAL_PRECISION must be an integer, got {env!r}")
    if digits > MAX_PRECISION:
        raise ValueError(f"QUADRANTAL_PRECISION {digits} is over the cap {MAX_PRECISION}")
    return digits


def cmd_units(args) -> dict:
    from .units import continued_fraction_of_omega, unit_group_report

    field = QuadraticField(args.m)
    out = unit_group_report(field, precision=decimal_precision(50)).to_json_dict()
    if field.m > 0:
        quotients, period = continued_fraction_of_omega(field)
        out["continued_fraction"] = {"quotients": quotients, "period": period}
    return out


def cmd_pell(args) -> dict:
    from .units import pell_solve

    sol = pell_solve(args.m, args.kind)
    if sol is None:
        return {"m": args.m, "kind": args.kind, "solvable": False}
    return {"m": args.m, "kind": args.kind, "solvable": True, **sol.to_json_dict()}


def cmd_census(args) -> dict:
    from . import census as census_mod

    with census_mod._sharing_tile():  # Z(k) and the --csv marks read one tile
        field = QuadraticField(args.m)
        result = census_mod._census(field, args.k, args.per_class, None, decimal_precision(30))
        out = result.to_json_dict()
        if args.csv is not None:
            rows = census_mod.checkpoint_ratios(field, args.k)
            try:
                with open(args.csv, "w") as fh:
                    fh.write("k,z_over_k\n")
                    for kp, ratio in rows:
                        fh.write(f"{kp},{ratio!r}\n")
            except OSError as e:
                raise ValueError(f"cannot write {args.csv}: {e.strerror}") from e
            out["csv"] = args.csv
    return out

