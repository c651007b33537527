"""Seeded job lists for the benchmark workloads.

Nothing here imports quadrantal: the inputs are made from the seed alone,
so the program under test only ever sees the generated specs.  Every job
spec is a JSON-able dict carrying its round number; a run measures whole
rounds, and every round has the same shape, so two seeds differ only in
which concrete inputs fill each slot of the round.
"""

from __future__ import annotations

import math
import random

from oracles import (
    class_number_by_forms,
    discriminant,
    element_norm,
    is_squarefree,
    regulator_estimate,
)

# The workloads BENCHMARK.json measures.  compute mixes one round of each
# library family per round; each family also runs alone, to isolate a layer.
WORKLOADS = ("compute", "cli")
FAMILIES = ("classgroup", "census", "numberfield")

# Per-job time caps in seconds.  REAL_FIELD_CAP_S is the classgroup cap that
# real fields with a large regulator exceed today; the others only turn a
# hang into a recorded failure.
REAL_FIELD_CAP_S = 2.0
CAP_S = {"classgroup": 30.0, "census": 60.0, "numberfield": 60.0, "cli": 30.0}

# Rounds generated per seed; a run measures the first rounds(workload, S).
MAX_ROUNDS = {"compute": 10, "classgroup": 60, "census": 40, "numberfield": 20, "cli": 40}

# About the wall time of one round's jobs on the reference host, in
# seconds.  The number of rounds a run measures follows from --seconds
# alone, never from how fast the host happens to be, so every run of a
# workload and seed runs the same jobs.
ROUND_S = {"compute": 25.0, "classgroup": 9.0, "census": 4.0, "numberfield": 10.0, "cli": 7.5}


def rounds(workload: str, seconds: float) -> int:
    return max(1, min(MAX_ROUNDS[workload], round(seconds / ROUND_S[workload])))


# classgroup: every round draws the same number of fields from fixed bands:
# imaginary fields by class number h (counted independently by reduced
# forms), real fields by regulator.  Class-group cost grows like h^2.3, and
# for real fields with the regulator, so fixed bands give every run the same
# cost profile while the seed picks the fields inside each band.  Real fields
# with a regulator above 8.5 all exceed REAL_FIELD_CAP_S today.
#
# The compute round is built around its percentiles.  Of its 39 jobs, 15
# take under 0.1 s (the h <= 3 fields among them) and the next 10 take
# 0.15-0.3 s: six degree-5 number fields, whose costs lie close together,
# and four h = 16 fields, whose costs spread wider.  The median, the 20th
# job, is the 5th of those 10, so it falls among the degree-5 fields.  The
# three real fields above regulator 8.5 and Phi_11 are the four slowest
# jobs, so the 90th percentile falls on a timeout while there are three.
IMAG_RANGE = (-1000, -2)
REAL_RANGE = (2, 300)
IMAG_BANDS = ((1, 3, 8), (16, 16, 4), (24, 24, 2))  # (h from, h to, picks per round)
REAL_BANDS = ((0.0, 5.0, 1), (8.5, math.inf, 3))  # (regulator from, to, picks per round)

# census: small fields of both signs with h = 1, 2, 3, 4.  Each round runs
# the plain sieve on one real and one imaginary field, and the per-class
# census on another two.
CENSUS_JOBS = (("sieve", 2), ("sieve", -23), ("perclass", 10), ("perclass", -14))
K = {"sieve": 10**6, "perclass": 3 * 10**4}
K_JITTER = 0.03
SPOTS_PER_JOB = 24

# numberfield: Eisenstein fields of every degree from 2 to 8, more of the
# small degrees that most uses of the library have, plus the prime
# cyclotomic polynomials, every round.
EISENSTEIN_DEGREES = (2, 3, 4, 4, 5, 5, 5, 5, 5, 5, 6, 7, 8)
CYCLOTOMIC_PRIMES = (3, 5, 7, 11)

_PHI = (math.sqrt(5) - 1) / 2


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"quadrantal-bench/{workload}/{seed}")


def squarefree_range(lo: int, hi: int) -> list[int]:
    return [m for m in range(lo, hi + 1) if m not in (0, 1) and is_squarefree(m)]


class Band:
    """One band of a population, sorted by cost, drawn `picks` members per
    round.  Pick j of round r takes the member at position v of the band in
    even rounds and 1 - v in odd ones, v = frac(u_j + (r // 2) * phi) with a
    seeded u_j: consecutive rounds mirror each other and any prefix of rounds
    spreads evenly over the band.  Members are reused only once the band is
    exhausted."""

    def __init__(self, members: list, picks: int, rng: random.Random):
        self.members = members
        self.offsets = [rng.random() for _ in range(picks)]
        self.used: set[int] = set()

    def draw(self, r: int) -> list:
        out = []
        n = len(self.members)
        for u in self.offsets:
            v = (u + (r // 2) * _PHI) % 1.0
            i = min(int((1.0 - v if r % 2 else v) * n), n - 1)
            if len(self.used) == n:
                self.used.clear()
            while i in self.used:
                i = (i + 1) % n
            self.used.add(i)
            out.append(self.members[i])
        return out


def seeded_ideal(rng: random.Random, m: int) -> list[int]:
    """Generators [n, x, y] of the proper ideal (n, x + y*w): n is a product
    of small primes sharing a factor with N(x + y*w)."""
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(200):
        n = rng.choice(primes) * rng.choice((1, 1, 2, 3, 5))
        x, y = rng.randint(-20, 20), rng.randint(1, 5)
        if math.gcd(n, element_norm(m, x, y)) > 1:
            return [n, x, y]
    return [2, 2, 0]  # the ideal (2) is always proper


def classgroup_jobs(seed: int) -> list[dict]:
    rng = _rng("classgroup", seed)
    imag = squarefree_range(*IMAG_RANGE)
    h = {m: class_number_by_forms(discriminant(m)) for m in imag}
    real = squarefree_range(*REAL_RANGE)
    reg = {m: regulator_estimate(m) for m in real}
    bands = [Band(sorted((m for m in imag if lo <= h[m] <= hi), key=lambda m: (h[m], -m)), k, rng)
             for lo, hi, k in IMAG_BANDS]
    bands += [Band(sorted((m for m in real if lo <= reg[m] < hi), key=reg.get), k, rng)
              for lo, hi, k in REAL_BANDS]
    jobs = []
    for r in range(MAX_ROUNDS["classgroup"]):
        ms = [m for band in bands for m in band.draw(r)]
        rng.shuffle(ms)
        for m in ms:
            cap = REAL_FIELD_CAP_S if m > 0 else CAP_S["classgroup"]
            jobs.append({"round": r, "m": m, "ideal": seeded_ideal(rng, m), "cap": cap})
    return jobs


def _jitter(rng: random.Random, k: int) -> int:
    return round(k * (1 + rng.uniform(-K_JITTER, K_JITTER)))


def census_jobs(seed: int) -> list[dict]:
    rng = _rng("census", seed)
    jobs = []
    for r in range(MAX_ROUNDS["census"]):
        batch = []
        for kind, m in CENSUS_JOBS:
            k = _jitter(rng, K[kind])
            spots = sorted(rng.randint(1, k) for _ in range(SPOTS_PER_JOB))
            batch.append({"kind": kind, "m": m, "k": k, "spots": spots})
        rng.shuffle(batch)
        jobs.extend({"round": r, "cap": CAP_S["census"], **spec} for spec in batch)
    return jobs


def eisenstein_poly(rng: random.Random, degree: int) -> list[int]:
    """x^n + 2*(+-x^(n-1) +- ... +- 1), constant term first: Eisenstein at 2.
    The seed picks the signs only, because coefficient size and sparsity
    drive the cost of the exact arithmetic."""
    return [2 * rng.choice((1, -1)) for _ in range(degree)] + [1]


def _nonzero_vector(rng: random.Random, n: int, bound: int) -> list[int]:
    while True:
        v = [rng.randint(-bound, bound) for _ in range(n)]
        if any(v[1:]):  # not a rational number
            return v


def numberfield_jobs(seed: int) -> list[dict]:
    rng = _rng("numberfield", seed)
    jobs = []
    for r in range(MAX_ROUNDS["numberfield"]):
        fields = [(f"eisenstein{n}", eisenstein_poly(rng, n)) for n in EISENSTEIN_DEGREES]
        fields += [(f"cyclotomic{p}", [1] * p) for p in CYCLOTOMIC_PRIMES]
        batch = []
        for label, f in fields:
            n = len(f) - 1
            batch.append({
                "label": label,
                "f": f,
                "g": eisenstein_poly(rng, 2),
                "tn": [_nonzero_vector(rng, n, 3) for _ in range(2)],
                "mp": _nonzero_vector(rng, n, 2),
            })
        rng.shuffle(batch)
        jobs.extend({"round": r, "cap": CAP_S["numberfield"], **spec} for spec in batch)
    return jobs


# ---------------------------------------------------------------------------
# cli: one request per template and round
# ---------------------------------------------------------------------------

def poly_text(coeffs) -> str:
    """'c_n*x^n + ... + c_0' for integer coefficients (constant term first)."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        terms.append(str(c) if i == 0 else (f"{c}*x" if i == 1 else f"{c}*x^{i}"))
    return " + ".join(terms) if terms else "0"


def poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_poly(rng, degree: int, monic: bool = False) -> list[int]:
    cs = [rng.randint(-5, 5) for _ in range(degree)]
    lead = 1 if monic else rng.choice((1, 2, 3, -1, -2))
    return cs + [lead]


# Values that may start with "-" are passed as --option=value, which argparse
# never mistakes for an option.


def _ideal_text(n: int, x: int, y: int) -> str:
    return f"({n}, {x}{y:+d}*w)"


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _tpl_poly_divrem(rng):
    a, b = _random_poly(rng, rng.randint(3, 4)), _random_poly(rng, rng.randint(1, 2), monic=True)
    return {"argv": ["poly", "divrem", f"--dividend={poly_text(a)}", f"--divisor={poly_text(b)}"],
            "a": a, "b": b}


def _tpl_poly_gcd(rng):
    c = _random_poly(rng, rng.randint(1, 2), monic=True)
    a = poly_mul(c, _random_poly(rng, rng.randint(1, 2)))
    b = poly_mul(c, _random_poly(rng, rng.randint(1, 2)))
    return {"argv": ["poly", "gcd", f"--a={poly_text(a)}", f"--b={poly_text(b)}"], "a": a, "b": b}


def _tpl_poly_content(rng):
    p = [rng.choice((2, 3, 6, -4)) * c for c in _random_poly(rng, 3)]
    return {"argv": ["poly", "content", f"--poly={poly_text(p)}"], "p": p}


def _tpl_poly_eisenstein(rng):
    p = eisenstein_poly(rng, rng.randint(3, 5)) if rng.random() < 0.5 else _random_poly(rng, 3, True)
    if p[0] == 0:
        p[0] = 1
    return {"argv": ["poly", "eisenstein", f"--poly={poly_text(p)}"], "p": p}


def _tpl_poly_cyclotomic(rng):
    p = rng.choice((3, 5, 7, 11, 13))
    return {"argv": ["poly", "cyclotomic", "--p", str(p)], "p": p}


def _tpl_field_trace_norm(rng):
    f = eisenstein_poly(rng, rng.randint(2, 4))
    e = _nonzero_vector(rng, len(f) - 1, 4)
    return {"argv": ["field", "trace-norm", f"--minpoly={poly_text(f)}",
                     "--element=" + ",".join(map(str, e))], "f": f, "e": e}


def _tpl_field_discriminant(rng):
    f = eisenstein_poly(rng, rng.randint(2, 4))
    n = len(f) - 1
    rows = ";".join(",".join("1" if i == j else "0" for j in range(n)) for i in range(n))
    return {"argv": ["field", "discriminant", f"--minpoly={poly_text(f)}", "--tuple", rows], "f": f}


def _tpl_field_minpoly(rng):
    f = eisenstein_poly(rng, rng.randint(2, 4))
    e = _nonzero_vector(rng, len(f) - 1, 2)
    return {"argv": ["field", "minpoly-of", f"--minpoly={poly_text(f)}",
                     "--element=" + ",".join(map(str, e))], "f": f, "e": e}


def _tpl_field_compose(rng):
    op = rng.choice(("sum", "product"))
    p, q = eisenstein_poly(rng, 2), eisenstein_poly(rng, 2)
    return {"argv": ["field", "compose", "--op", op, f"--p={poly_text(p)}", f"--q={poly_text(q)}"],
            "op": op, "p": p, "q": q}


def _tpl_field_primitive(rng):
    p, q = eisenstein_poly(rng, 2), eisenstein_poly(rng, rng.randint(2, 3))
    return {"argv": ["field", "primitive-element", f"--p={poly_text(p)}", f"--q={poly_text(q)}"],
            "p": p, "q": q}


def _small_field(rng, lo=-60, hi=60) -> int:
    return rng.choice(squarefree_range(lo, hi))


def _tpl_quad_split(rng):
    m, q = _small_field(rng), rng.choice(_SMALL_PRIMES)
    return {"argv": ["quad", "split", "--m", str(m), "--q", str(q)], "m": m, "q": q}


def _tpl_quad_factor(rng):
    m = _small_field(rng, -60, -2)
    n, x, y = seeded_ideal(rng, m)
    return {"argv": ["quad", "factor", "--m", str(m), "--ideal", _ideal_text(n, x, y), "--verify"],
            "m": m, "ideal": [n, x, y]}


def _tpl_quad_principal(rng):
    m = _small_field(rng, -60, -2)
    n, x, y = seeded_ideal(rng, m)
    return {"argv": ["quad", "principal", "--m", str(m), "--ideal", _ideal_text(n, x, y)],
            "m": m, "ideal": [n, x, y]}


def _tpl_quad_classgroup(rng):
    m = _small_field(rng, -60, -2)
    return {"argv": ["quad", "classgroup", "--m", str(m), "--verify"], "m": m}


def _tpl_quad_minkowski(rng):
    m = _small_field(rng, -300, 300)
    return {"argv": ["quad", "minkowski", "--m", str(m)], "m": m}


def _tpl_quad_ring_text(rng):
    m = _small_field(rng, -300, 300)
    return {"argv": ["quad", "ring", "--m", str(m), "--format", "text"], "m": m}


def _tpl_units(rng):
    m = _small_field(rng, -20, 300)
    return {"argv": ["units", "--m", str(m)], "m": m}


def _tpl_pell(rng):
    m = _small_field(rng, 2, 300)
    kind = rng.choice(("plusOne", "minusOne", "plusFour", "minusFour"))
    return {"argv": ["pell", "--m", str(m), "--kind", kind], "m": m, "kind": kind}


def _tpl_cyclo_split(rng):
    m, q = rng.randint(3, 60), rng.choice(_SMALL_PRIMES)
    return {"argv": ["cyclo", "split", "--m", str(m), "--q", str(q)], "m": m, "q": q}


def _tpl_cyclo_lists(rng):
    return {"argv": ["cyclo", "lists"]}


# The two census templates appear twice per round, so 4 of the 29 requests
# of a round cost about twice a plain one or more: the 90th percentile falls
# inside that group instead of on the tail of process start-up.  The
# per-class requests cost more than the plain ones, so the 90th percentile
# of a 116-request run, the 12th from the top, is the 4th-slowest plain
# census of eight.
def _tpl_census(rng):
    m, k = rng.choice((-5, -7, -23, 2, 10)), rng.randint(220_000, 230_000)
    return {"argv": ["census", "--m", str(m), "--k", str(k)], "m": m, "k": k}


def _tpl_census_csv(rng):
    m, k = rng.choice((-5, -14, 10)), rng.randint(9000, 9500)
    # {tmp} is replaced by a scratch directory inside the checkout
    return {"argv": ["census", "--m", str(m), "--k", str(k), "--per-class", "--csv",
                     "{tmp}/census.csv"], "m": m, "k": k}


def _tpl_bad_ideal(rng):
    return {"argv": ["quad", "factor", "--m", str(_small_field(rng, -60, -2)), "--ideal", "bogus"],
            "expect": 2}


def _tpl_bad_poly(rng):
    return {"argv": ["poly", "divrem", "--dividend", "x^2 ?? 1", "--divisor", "x"], "expect": 2}


def _tpl_bad_command(rng):
    return {"argv": [rng.choice(("frobnicate", "classgroup", "ideal"))], "expect": 2}


def _tpl_not_squarefree(rng):
    s = rng.choice((4, 9, 25))
    m = s * rng.choice((1, 2, 3, -1, -2, -3))
    return {"argv": ["quad", "classgroup", "--m", str(m)], "expect": 3}


def _tpl_composite_cyclotomic(rng):
    return {"argv": ["poly", "cyclotomic", "--p", str(rng.choice((4, 6, 9, 15)))], "expect": 3}


CLI_TEMPLATES = {
    "poly_divrem": _tpl_poly_divrem,
    "poly_gcd": _tpl_poly_gcd,
    "poly_content": _tpl_poly_content,
    "poly_eisenstein": _tpl_poly_eisenstein,
    "poly_cyclotomic": _tpl_poly_cyclotomic,
    "field_trace_norm": _tpl_field_trace_norm,
    "field_discriminant": _tpl_field_discriminant,
    "field_minpoly": _tpl_field_minpoly,
    "field_compose": _tpl_field_compose,
    "field_primitive": _tpl_field_primitive,
    "quad_split": _tpl_quad_split,
    "quad_factor": _tpl_quad_factor,
    "quad_principal": _tpl_quad_principal,
    "quad_classgroup": _tpl_quad_classgroup,
    "quad_minkowski": _tpl_quad_minkowski,
    "quad_ring_text": _tpl_quad_ring_text,
    "units": _tpl_units,
    "pell": _tpl_pell,
    "cyclo_split": _tpl_cyclo_split,
    "cyclo_lists": _tpl_cyclo_lists,
    "census": _tpl_census,
    "census_2": _tpl_census,
    "census_csv": _tpl_census_csv,
    "census_csv_2": _tpl_census_csv,
    "bad_ideal": _tpl_bad_ideal,
    "bad_poly": _tpl_bad_poly,
    "bad_command": _tpl_bad_command,
    "not_squarefree": _tpl_not_squarefree,
    "composite_cyclotomic": _tpl_composite_cyclotomic,
}


def cli_jobs(seed: int) -> list[dict]:
    rng = _rng("cli", seed)
    jobs = []
    for r in range(MAX_ROUNDS["cli"]):
        batch = []
        for name, template in CLI_TEMPLATES.items():
            spec = template(rng)
            spec.setdefault("expect", 0)
            batch.append({"template": name, **spec})
        rng.shuffle(batch)
        jobs.extend({"round": r, "cap": CAP_S["cli"], **spec} for spec in batch)
    return jobs


def compute_jobs(seed: int) -> list[dict]:
    """Round r holds round r of every library family, in seeded order; each
    job carries its family."""
    rng = _rng("compute", seed)
    by_round: dict[int, list] = {}
    for family in FAMILIES:
        for spec in GENERATORS[family](seed):
            by_round.setdefault(spec["round"], []).append({**spec, "family": family})
    jobs = []
    for r in range(MAX_ROUNDS["compute"]):
        rng.shuffle(by_round[r])
        jobs.extend(by_round[r])
    return jobs


GENERATORS = {
    "compute": compute_jobs,
    "classgroup": classgroup_jobs,
    "census": census_jobs,
    "numberfield": numberfield_jobs,
    "cli": cli_jobs,
}


def family(workload: str, spec: dict) -> str:
    """The job family of a spec: its own tag in compute, else the workload."""
    return spec.get("family", workload)


def job_label(workload: str, spec: dict) -> str:
    """Short human-readable name of one job."""
    workload = family(workload, spec)
    if workload == "classgroup":
        return f"m={spec['m']}"
    if workload == "census":
        return f"{spec['kind']} m={spec['m']} k={spec['k']}"
    if workload == "numberfield":
        return spec["label"]
    return spec["template"]
