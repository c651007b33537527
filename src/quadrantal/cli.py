"""Command-line interface: every subsystem behind one entry point.

Output is JSON (default) or plain text; identical invocations produce
byte-identical output.  Arbitrary-precision quantities are rendered as
decimal strings.  Exit codes: 0 success, 1 standard output closed before
the result was written (piped into `head`, say), 2 invalid input, 3
computational precondition failure (non-square-free m, unfactorable input,
division by the zero polynomial, an unwritable --csv file, a table
(class groups: h^2 entries), prime sieve or cyclotomic polynomial over 10^8
entries, a fundamental unit or rho-cycle of period over 10^5, a number
field or composed polynomial of degree over 400, a QUADRANTAL_PRECISION
over 1000 digits, a shift or precision search that ends uncertified, an
arithmetic overflow, a recursion too deep or memory running out, ...), 4 a
failed certificate (an exact check of a computed result that does not
hold: factors that do not multiply back, per-class counts that do not sum
to Z(k), ...; a bug, not a property of the input).

A plain argv (a command, its action, each option once by its exact name,
as `--opt value` or `--opt=value`) is read off COMMANDS; argparse, the
owner of all help and error text, reads any other and builds only the
parser it names (cli_args, loaded for that fallback alone).  JSON is
written as json.dumps(payload, indent=2) writes it, so a successful
request imports neither argparse nor json.  The handlers are in cli_poly
(poly, field, cyclo), cli_quad (quad) and cli_units (units, pell, census),
importable from here through quadrantal._forward; a request imports only
its own, and it only the layers it uses.  A census builds no ideal table:
Z(k) and the --csv marks are hyperbola sums on one tile of chi_d.  The
decimals of census, units and quad minkowski come from quadrantal.reals,
in integer fixed point: of them only quad minkowski, whose upper bound is
a Fraction, loads `fractions` (and with it `decimal`).  `mpmath` is loaded
only where a number-field embedding is computed.

QUADRANTAL_PRECISION sets the digits of the units regulator (default 50)
and of the census densities (default 30): minimum 30, maximum 1000.  No
other output reads it; quad minkowski always prints 30 digits.
"""

from __future__ import annotations

import os
import re
import sys
from importlib import import_module
from types import SimpleNamespace

from . import _forward


class InputError(ValueError):
    """Malformed command-line input (exit code 2)."""


# what a malformed literal raises: Fraction("abc"), Fraction("1/0"),
# json.loads, a missing JSON key, or a JSON value of the wrong type
_PARSE_ERRORS = (ValueError, ZeroDivisionError, KeyError, TypeError)


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json(payload, "\n"))
    else:
        for line in _text_lines(payload, ""):
            print(line)


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json(value, newline: str) -> str:
    """json.dumps(value, indent=2); newline is the break before value's closing bracket."""
    if isinstance(value, str):
        if not (value.isascii() and value.isprintable()) or '"' in value or "\\" in value:
            value = "".join(map(_escape, value))
        return f'"{value}"'
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):  # str keys only, as in every payload
        items, brackets = [f"{_json(k, '')}: {_json(v, inner)}" for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [_json(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{newline}{brackets[1]}" if items else brackets


def _escape(char: str) -> str:  # as ensure_ascii writes it: above U+FFFF, a surrogate pair
    if char in _ESCAPES or " " <= char <= "~":
        return _ESCAPES.get(char, char)
    n = ord(char) - 0x10000
    return f"\\u{ord(char):04x}" if n < 0 else f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"


def _text_lines(value, prefix: str):
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                yield f"{prefix}{k}:"
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}{k}: {v}"
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}- {v}"
    else:
        yield f"{prefix}{value}"


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

# command -> (help, {action -> {option -> add_argument keywords}}); a
# command without actions has the one action None.  Every action takes
# --format before its own options.
_TEXT = {"required": True}
_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true", "default": False}
_FORMAT = {"choices": ("json", "text"), "default": "json"}
_IDEAL_PAIR = {"--m": _INT, "--ideal-a": _TEXT, "--ideal-b": _TEXT}
COMMANDS = {
    "poly": ("polynomial utilities", {
        "divrem": {"--dividend": _TEXT, "--divisor": _TEXT},
        "gcd": {"--a": _TEXT, "--b": _TEXT},
        "content": {"--poly": _TEXT},
        "eisenstein": {"--poly": _TEXT},
        "cyclotomic": {"--p": _INT},
    }),
    "field": ("number-field computations", {
        "trace-norm": {"--minpoly": _TEXT, "--element": _TEXT},
        "discriminant": {"--minpoly": _TEXT, "--tuple": {**_TEXT, "help": "elements separated by ';'"}},
        "minpoly-of": {"--minpoly": _TEXT, "--element": _TEXT},
        "compose": {"--op": {**_TEXT, "choices": ("sum", "product")}, "--p": _TEXT, "--q": _TEXT},
        "primitive-element": {"--p": _TEXT, "--q": _TEXT},
        "denominator-clearing": {"--minpoly": _TEXT, "--element": _TEXT},
    }),
    "quad": ("quadratic ring and ideal calculus", {
        "ring": {"--m": _INT},
        "minkowski": {"--m": _INT},
        "split": {"--m": _INT, "--q": _INT},
        "factor": {"--m": _INT, "--ideal": _TEXT, "--verify": _FLAG},
        "product": _IDEAL_PAIR,
        "gcd": _IDEAL_PAIR,
        "quotient": _IDEAL_PAIR,
        "principal": {"--m": _INT, "--ideal": _TEXT},
        "classgroup": {"--m": _INT, "--verify": _FLAG},
    }),
    "units": ("unit group, fundamental unit, regulator", {None: {"--m": _INT}}),
    "pell": ("least solutions of Pell equations", {None: {
        "--m": _INT, "--kind": {**_TEXT, "choices": ("plusOne", "minusOne", "plusFour", "minusFour")},
    }}),
    "cyclo": ("cyclotomic splitting parameters", {"split": {"--m": _INT, "--q": _INT}, "lists": {}}),
    "census": ("ideal counts against the density law", {None: {
        "--m": _INT, "--k": _INT, "--per-class": _FLAG,
        "--csv": {"help": "write (k', Z(k')/k') checkpoints to this file"},
    }}),
}


def _fast_args(argv: list[str]) -> SimpleNamespace | None:
    """build_parser(argv).parse_args(argv) of a plain argv (module docstring), else None."""
    command, *words = argv or [None]
    actions = COMMANDS[command][1] if command in COMMANDS else {}
    action = None if None in actions or not words else words.pop(0)
    options, values, words = {"--format": _FORMAT, **actions.get(action, {})}, {}, iter(words)
    for word in words:
        flag, joined, value = word.partition("=")
        keywords = options.get(flag)
        if keywords is None or flag in values or joined and ("action" in keywords or value == "--"):
            return None  # argparse drops a value '--'; a flag takes none
        if "action" in keywords:  # store_true
            value = True
        elif not joined:  # the next word: argparse reads '-x' as an option, '-5' as a value
            value = next(words, "-")  # '-' where argv ends
            if value.startswith("-") and not re.match(r"^-\d+$|^-\d*\.\d+$", value):
                return None
        try:
            value = keywords["type"](value) if "type" in keywords else value
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[flag] = value
    if action not in actions or any(kw.get("required") and f not in values for f, kw in options.items()):
        return None
    args = {flag[2:].replace("-", "_"): values.get(flag, kw.get("default")) for flag, kw in options.items()}
    return SimpleNamespace(command=command, **({} if action is None else {"action": action}), **args)


# the handlers, parse helpers and parser, importable from here as before
# (PEP 562), by their module now; no other name imports anything
__getattr__ = _forward(globals(), {name: home for home, names in {
    "cli_poly": "TYPE_CHECKING parse_poly parse_element_coords _field_from_args cmd_poly cmd_field cmd_cyclo",
    "cli_quad": "_QUADINT_TERM parse_quad_int parse_ideal _verify_class_group _is_associative cmd_quad",
    "cli_units": "decimal_precision cmd_units cmd_pell cmd_census",
    "cli_args": "build_parser _add_actions _add_options"}.items() for name in names.split()})


# a request imports its handler's module on the first call
_HANDLERS = {command: lambda args, c=command: __getattr__(f"cmd_{c}")(args) for command in COMMANDS}


def main(argv=None) -> int:
    # fundamental units and generators of large fields run to many thousand
    # digits, beyond CPython's default int->str limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv) or __getattr__("build_parser")(argv).parse_args(argv)
    try:
        emit(_HANDLERS[args.command](args), args.format)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OverflowError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError:  # from a handler or from emit: one line, no traceback
        print("error: out of memory: the request needs more than the process may allocate", file=sys.stderr)
        return 3
    except ArithmeticError as e:  # every certificate check raises one
        print(f"error: certificate failed: {e}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader went away (`... | head -1`): send what is left to
        # os.devnull so the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    # the handler modules import InputError from quadrantal.cli: this module
    # when runpy put it in sys.modules (python -m), else an imported copy
    if sys.modules[__name__].__dict__ is globals():
        sys.modules[f"{__package__}.cli"] = sys.modules[__name__]
    sys.exit(import_module(f"{__package__}.cli").main())
