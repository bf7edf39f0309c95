"""The cli_session workload: one fixed cycle of qentropy CLI calls, and the
checks on their output.

Every check recomputes the expected answer with the math module (sums,
bisections), never with qentropy.  Standard library only, so the process
that spawns the CLI does not itself load numpy.

Inputs: the entropy and divergence calls take pmfs and indices drawn from
the seed; every other call has fixed inputs.  The infeasible maxent problem
is a known fault: it should exit 1 (validation) and exits 2 today, so it is
expected to count as failed until that is fixed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

INPUT_DIR = os.path.join("perfbench", "out", "cli-inputs")


@dataclass(frozen=True)
class CliCall:
    name: str
    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[[str, str], str | None]  # (stdout, stderr) -> problem or None


def _close(value, reference, rel=1e-11, what="value"):
    if not isinstance(value, (int, float)) or not abs(value - reference) <= rel * max(1.0, abs(reference)):
        return f"{what} {value!r} differs from the reference {reference!r}"
    return None


def _bisect(f, lo, hi, steps=200):
    """Root of an increasing function on [lo, hi]."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _random_pmf(rng: random.Random, n: int) -> list[float]:
    raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
    total = math.fsum(raw)
    pmf = [v / total for v in raw]
    # make the float sum exactly representable as 1 for the CLI's 1e-10 check
    pmf[-1] = 1.0 - math.fsum(pmf[:-1])
    return pmf


def _value_check(reference: float):
    def check(out: str, err: str):
        return _close(json.loads(out)["value"], reference)
    return check


def _entropy_calls(rng: random.Random) -> list[CliCall]:
    n = 8
    P = _random_pmf(rng, n)
    R = _random_pmf(rng, n)
    alpha = rng.choice((0.5, 2.0, 3.0))
    q = rng.choice((0.5, 2.0, 3.0))
    weights = [rng.uniform(0.1, 2.0) for _ in range(n)]
    pmf = json.dumps({"pmf": P})
    pair = json.dumps({"p": P, "r": R})
    measure_input = json.dumps(
        {"pmf": P, "partition": {"cells": [f"c{k}" for k in range(n)], "weights": weights}}
    )
    fsum = math.fsum
    return [
        CliCall("entropy.shannon", ("entropy", "--kind", "shannon", "--input", pmf), 0,
                _value_check(-fsum(p * math.log(p) for p in P))),
        CliCall("entropy.renyi", ("entropy", "--kind", "renyi", "--alpha", repr(alpha), "--input", pmf), 0,
                _value_check(math.log(fsum(p ** alpha for p in P)) / (1.0 - alpha))),
        CliCall("entropy.tsallis", ("entropy", "--kind", "tsallis", "--q", repr(q), "--input", pmf), 0,
                _value_check((1.0 - fsum(p ** q for p in P)) / (q - 1.0))),
        CliCall("entropy.measure", ("entropy", "--kind", "measure", "--input", measure_input), 0,
                _value_check(-fsum(p * math.log(p / w) for p, w in zip(P, weights)))),
        CliCall("divergence.kl", ("divergence", "--kind", "kl", "--input", pair), 0,
                _value_check(fsum(p * math.log(p / r) for p, r in zip(P, R)))),
        CliCall("divergence.renyi", ("divergence", "--kind", "renyi", "--alpha", repr(alpha), "--input", pair), 0,
                _value_check(math.log(fsum(p ** alpha * r ** (1.0 - alpha) for p, r in zip(P, R))) / (alpha - 1.0))),
        CliCall("divergence.tsallis", ("divergence", "--kind", "tsallis", "--q", repr(q), "--input", pair), 0,
                _value_check((fsum(p ** q * r ** (1.0 - q) for p, r in zip(P, R)) - 1.0) / (q - 1.0))),
    ]


APPROX_EXPONENT = 16


def _check_approx(out: str, err: str):
    doc = json.loads(out)
    cells = 2 ** APPROX_EXPONENT
    delta = 1.0 / cells
    # exact base-grid value of the Renyi-2 divergence of 2x against 1
    reference = math.log(math.fsum(4.0 * ((k + 0.5) * delta) ** 2 for k in range(cells)) * delta)
    problem = _close(doc["reference_divergence"], reference, 1e-12, "reference")
    if problem is None and abs(reference - math.log(4.0 / 3.0)) > 1e-9:
        problem = f"reference {reference!r} is not ln(4/3)"
    previous = -math.inf
    for row in doc["rows"]:
        value = row["discrete_divergence"]
        # constant reference: the level partitions refine each other, so the
        # discrete divergence can only grow and never passes the reference
        if value < previous - 1e-13 or value > reference + 1e-13:
            problem = problem or f"level {row['level']}: {value!r} breaks data processing"
        previous = value
        problem = problem or _close(row["abs_error"], abs(value - reference), 1e-12, "abs_error")
    return problem


DICE_TARGET = 4.5


def _check_dice(out: str, err: str):
    doc = json.loads(out)
    faces = range(1, 7)

    def mean_minus_target(beta):  # decreasing in beta, so negate for _bisect
        weights = [math.exp(-beta * u) for u in faces]
        return -(math.fsum(u * w for u, w in zip(faces, weights)) / math.fsum(weights) - DICE_TARGET)

    beta = _bisect(mean_minus_target, -60.0, 60.0)
    return _close(doc["beta"][0], beta, 1e-8, "beta")


ESCORT_TARGET = 0.3


def _check_escort(out: str, err: str):
    doc = json.loads(out)
    a = _bisect(lambda a: a * a / ((1.0 - a) ** 2 + a * a) - ESCORT_TARGET, 0.0, 1.0)
    return _close(doc["pmf"][1], a, 1e-9, "pmf[1]") or _close(doc["pmf"][0], 1.0 - a, 1e-9, "pmf[0]")


def _moment_check(features, targets):
    def check(out: str, err: str):
        pmf = json.loads(out)["pmf"]
        for m, (values, target) in enumerate(zip(features, targets)):
            moment = math.fsum(u * p for u, p in zip(values, pmf))
            problem = _close(moment, target, 1e-9, f"moment {m}")
            if problem:
                return problem
        return _close(math.fsum(pmf), 1.0, 1e-12, "pmf total")
    return check


def _check_infeasible(out: str, err: str):
    doc = json.loads(err)
    if doc["error"]["type"] != "validation":
        return f"infeasible targets reported as {doc['error']['type']!r}"
    return None


def _check_verify(out: str, err: str):
    doc = json.loads(out)
    if doc["passed"] is not True or not all(s["passed"] for s in doc["suites"]):
        return "verify did not report passed"
    return None


def _check_demo(out: str, err: str):
    lines = out.strip().splitlines()
    if lines[0] != "n,discrete_entropy,continuous_entropy" or len(lines) != 11:
        return f"demo: unexpected table shape {lines[:2]!r}"
    for line in lines[1:]:
        n, discrete, continuous = line.split(",")
        problem = _close(float(discrete), math.log(int(n)), 1e-12, f"S_{n}")
        problem = problem or _close(float(continuous), math.log(1.0 - 0.0), 1e-12, "continuous entropy")
        if problem:
            return problem
    return None


def _midpoints(n):
    return [(k + 0.5) / n for k in range(n)]


def _write_input(name: str, obj) -> str:
    os.makedirs(INPUT_DIR, exist_ok=True)
    path = os.path.join(INPUT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


def _maxent_calls() -> list[CliCall]:
    # larger ordinary problem: n = 1000 Lebesgue cells, features x and x^2,
    # targets the moments of a fixed strictly positive pmf
    n = 1000
    x = _midpoints(n)
    features = [x, [v * v for v in x]]
    raw = [math.exp(0.8 * v - 1.3 * v * v) * (1.2 + math.sin(17.0 * v)) for v in x]
    total = math.fsum(raw)
    generator = [v / total for v in raw]
    targets = [math.fsum(u * g for u, g in zip(values, generator)) for values in features]
    larger = _write_input("maxent_n1000.json", {
        "partition": {"n": n, "mode": "lebesgue", "interval": [0.0, 1.0]},
        "constraints": [{"values": v, "target": t} for v, t in zip(features, targets)],
    })
    # jointly infeasible targets (E x, E x^2, E sin 3x) = (0.4, 0.25, 0.3):
    # E x^2 >= (E x)^2 = 0.16 holds, but no pmf on [0, 1] reaches all three
    n = 10_000
    x = _midpoints(n)
    infeasible = _write_input("maxent_infeasible.json", {
        "partition": {"n": n, "mode": "lebesgue", "interval": [0.0, 1.0]},
        "constraints": [
            {"values": x, "target": 0.4},
            {"values": [v * v for v in x], "target": 0.25},
            {"values": [math.sin(3.0 * v) for v in x], "target": 0.3},
        ],
    })
    dice = json.dumps({"partition": {"n": 6},
                       "constraints": [{"values": [1, 2, 3, 4, 5, 6], "target": DICE_TARGET}]})
    escort = json.dumps({"partition": {"n": 2},
                         "constraints": [{"values": [0, 1], "target": ESCORT_TARGET}]})
    return [
        CliCall("maxent.dice", ("maxent", "--kind", "shannon", "--input", dice), 0, _check_dice),
        CliCall("maxent.escort", ("maxent", "--kind", "tsallis", "--q", "2", "--input", escort), 0,
                _check_escort),
        CliCall("maxent.file", ("maxent", "--kind", "shannon", "--input", larger), 0,
                _moment_check(features, targets)),
        CliCall("maxent.infeasible", ("maxent", "--kind", "shannon", "--input", infeasible), 1,
                _check_infeasible),
    ]


def build_calls(seed: int) -> list[CliCall]:
    """The round of CLI calls for a seed; writes the file inputs it needs."""
    rng = random.Random(seed)
    approx_input = json.dumps({"p": {"expr": "2*x"}, "r": {"expr": "1.0"}})
    return _entropy_calls(rng) + [
        CliCall("approx", ("approx", "--kind", "renyi", "--alpha", "2", "--levels", "2..10",
                           "--base-resolution", str(APPROX_EXPONENT), "--format", "json",
                           "--input", approx_input), 0, _check_approx),
    ] + _maxent_calls() + [
        CliCall("verify", ("verify",), 0, _check_verify),
        CliCall("demo", ("demo",), 0, _check_demo),
    ]


def judge(call: CliCall, code: int, out: str, err: str) -> tuple[bool, str | None]:
    """(failed, problem): an exit code other than the documented one is a
    failed operation; a documented exit with wrong output is a problem."""
    if code != call.expect_exit:
        return True, None
    try:
        return False, call.check(out, err)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"unreadable output ({type(exc).__name__}: {exc})"
