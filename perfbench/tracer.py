"""Run-time tracer for the layers of quadrantal.

install() wraps each listed public function or method in every module
namespace of the package that binds it (census.split_prime as well as
quadring.split_prime), plus the entries of cli._HANDLERS.  Timed wrappers
record a span (id, name, start, end, parent span, job id) and keep a stack so
each layer's self time -- its duration minus the time of the spans it
caused -- is summed as calls return.  Counted wrappers only count calls.
Spans stay in memory (up to a cap) and are written out at the end.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute path) -> span name "<module>.<attribute path>"
TIMED = [
    ("quadring", "ideal_from_generators"),
    ("quadring", "ideal_product"),
    ("quadring", "reduced_equivalent"),
    ("quadring", "is_principal"),
    ("quadring", "split_prime"),
    ("quadring", "class_group"),
    ("units", "fundamental_unit"),
    ("units", "continued_fraction_of_omega"),
    ("units", "pell_solve"),
    ("units", "regulator_mp"),
    ("arith", "sqrt_mod"),
    ("arith", "primes_up_to"),
    ("arith", "factorize"),
    ("arith", "is_prime"),
    ("census", "ideal_count_sieve"),
    ("census", "per_class_counts"),
    ("census", "sigma_theoretical"),
    ("census", "checkpoint_ratios"),
    ("numberfield", "FieldElement.trace_and_norm"),
    ("numberfield", "tuple_discriminant"),
    ("numberfield", "mat_det"),
    ("numberfield", "char_poly"),
    ("numberfield", "FieldElement.minimal_polynomial"),
    ("numberfield", "composed_min_poly"),
    ("numberfield", "primitive_element_shift"),
    ("polynomial", "poly_divmod"),
    ("polynomial", "poly_gcd"),
    ("polynomial", "squarefree_part"),
]
# Element arithmetic: counted, not timed (a span would cost more than the call).
COUNTED = [("quadring", "QuadInt.__mul__"), ("polynomial", "Poly.__mul__")]
# Calls whose non-None result counts as a useful outcome.
FOUND = {"quadring.is_principal"}
# The cli layer: main's self time is argument parsing and dispatch.
CLI_SPANS = {"main": "cli.parse", "emit": "cli.emit"}
CLI_HANDLER = "cli.handler"

MAX_SPANS = 100_000
PACKAGE = "quadrantal"


class Tracer:
    def __init__(self):
        self.job = -1
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.found: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0

    def start_job(self, job: int) -> None:
        self.job = job
        self._stack.clear()  # a timed-out job may leave frames behind

    # -- wrappers -----------------------------------------------------------

    def timed(self, name: str, fn):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        spans, stack = self.spans, self._stack
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        total_s.setdefault(name, 0.0)
        found = name in FOUND
        if found:
            self.found[name] = 0

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((frame[0], name, start, end, parent, self.job))
                else:
                    self.dropped += 1
            if found and result is not None:
                self.found[name] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for targets, make in ((TIMED, self.timed), (COUNTED, self.counted)):
            for module, path in targets:
                self._patch(modules, module, path, make(f"{module}.{path}", _resolve(module, path)))
        cli = sys.modules[f"{PACKAGE}.cli"]
        for attr, name in CLI_SPANS.items():
            self._patch(modules, "cli", attr, self.timed(name, getattr(cli, attr)))
        handler = {}
        for command, fn in cli._HANDLERS.items():
            handler[command] = self.timed(CLI_HANDLER, fn)
        cli._HANDLERS.update(handler)

    @staticmethod
    def _patch(modules, module: str, path: str, wrapper) -> None:
        original = wrapper.__wrapped__
        if "." in path:  # a method: rebind every class attribute holding it
            cls_name, _ = path.split(".")
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            for attr, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, attr, wrapper)
            return
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "found": dict(self.found),
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "job"],
                       "dropped": self.dropped, "spans": self.spans}, fh)


def _resolve(module: str, path: str):
    obj = sys.modules[f"{PACKAGE}.{module}"]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj
