"""In-process workloads: dyadic_tables, maxent_gibbs, maxent_escort.

Each workload is a list of rounds; a round is a fixed list of operations.
An operation's run() makes only the calls into qentropy that are timed, and
its check() then tests the result against values the benchmark computes
itself with numpy (never with qentropy) or against properties the method
must have.  qentropy is always reached through module attributes at call
time, so the tracer's wrappers see every call.

The two MaxEnt workloads solve a fixed problem set, drawn once from
PROBLEM_SEED, whatever --seed is.  Whether a problem stalls depends on
rounding in the last bits of its data, so problems drawn from --seed would
fail in a share that changes with the seed.  Drawn from a fixed seed, each
problem fails every time or never.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from qentropy import dyadic, maxent, measure, serialize, tsallis

# operations end in one of these when the program fails; anything else is a
# fault of the benchmark and stops the run
FAILURES = (maxent.ConvergenceError, maxent.InfeasibleError, tsallis.EmptySupportError)

PROBLEM_SEED = 0
ROUNDS_PREPARED = 4  # seeded dyadic rounds built at set-up, one period of COMBOS


@dataclass
class Operation:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


# ---------------------------------------------------------------- dyadic

BASE_EXPONENT = 20
LEVELS = list(range(2, 13))
COMBOS = (("renyi", 0.5), ("renyi", 2.0), ("tsallis", 0.5), ("tsallis", 2.0))


@dataclass(frozen=True)
class Density:
    expr: str
    fn: Callable[[np.ndarray], np.ndarray]  # the same density, for the checks


CONSTANT = Density("1.0", lambda x: np.ones_like(x))
FIXED_PAIRS = (
    (Density("2*x", lambda x: 2.0 * x), CONSTANT),
    (Density("1 + 0.3*sin(2*pi*x)", lambda x: 1.0 + 0.3 * np.sin(2.0 * np.pi * x)), CONSTANT),
)


def _trig_density(rng: np.random.Generator) -> Density:
    c1, c2 = (float(v) for v in rng.uniform(-0.4, 0.4, 2))
    return Density(
        f"1 + {c1!r}*sin(2*pi*x) + {c2!r}*cos(4*pi*x)",
        lambda x: 1.0 + c1 * np.sin(2.0 * np.pi * x) + c2 * np.cos(4.0 * np.pi * x),
    )


def _base_grid(density: Density) -> np.ndarray:
    cells = 2 ** BASE_EXPONENT
    raw = np.broadcast_to(density.fn((np.arange(cells) + 0.5) / cells), (cells,))
    return raw / (np.sum(raw) / cells)


def _table_operation(p: Density, r: Density, kind: str, index: float) -> Operation:
    constant_reference = r is CONSTANT

    def run():
        def grid(d: Density):
            return dyadic.BaseGridDensity.from_function(
                serialize.expression_function(d.expr), (0.0, 1.0), base_exponent=BASE_EXPONENT
            )
        return dyadic.convergence_table(grid(p), grid(r), index, kind, LEVELS)

    def check(rows):
        pv, rv = _base_grid(p), _base_grid(r)
        power = float(np.sum(pv ** index * rv ** (1.0 - index))) / pv.size
        if kind == "renyi":
            reference = math.log(power) / (index - 1.0)
        else:
            reference = (power - 1.0) / (index - 1.0)
        if not abs(rows[0].reference_divergence - reference) <= 1e-10 * max(1.0, abs(reference)):
            return f"reference {rows[0].reference_divergence!r} against numpy {reference!r}"
        errors = {row.level: abs(row.discrete_divergence - reference) for row in rows}
        if not (errors[12] < 1e-3 and errors[12] < errors[4]):
            return f"level-12 error {errors[12]!r} (level 4: {errors[4]!r})"
        if constant_reference:
            # the level partitions form a refining chain: data processing
            slack = 1e-12 * max(1.0, abs(reference))
            values = [row.discrete_divergence for row in rows]
            if any(b < a - slack for a, b in zip(values, values[1:])):
                return f"discrete divergence decreases with level: {values!r}"
            if max(values) > reference + slack:
                return f"discrete divergence {max(values)!r} above the reference {reference!r}"
        return None

    return Operation(f"table.{kind}.{index}", run, check)


def dyadic_rounds(seed: int) -> list[list[Operation]]:
    """Each round: the two constant-reference pairs and three seeded pairs of
    smooth positive densities; (kind, index) rotates over rounds."""
    rng = np.random.default_rng(seed)
    rounds = []
    for r in range(ROUNDS_PREPARED):
        pairs = list(FIXED_PAIRS) + [(_trig_density(rng), _trig_density(rng)) for _ in range(3)]
        rounds.append([
            _table_operation(p, q, *COMBOS[(r + j) % len(COMBOS)]) for j, (p, q) in enumerate(pairs)
        ])
    return rounds


# ---------------------------------------------------------------- maxent

SIZES = (100, 1000, 10_000)
MODES = ("counting", "lebesgue")
ESCORT_INDICES = (0.5, 0.7, 1.5, 2.0, 3.0)
GIBBS_DRAWS = 2  # problems per (n, mode, M): a denser spread of op times steadies the median


def _features(n: int, count: int) -> np.ndarray:
    x = (np.arange(n) + 0.5) / n
    return np.vstack([x, x * x, np.sin(3.0 * x)][:count])


def _weights(n: int, mode: str) -> np.ndarray:
    return np.ones(n) if mode == "counting" else np.full(n, 1.0 / n)


def _generator(rng: np.random.Generator, n: int, mode: str, tilt: float, noise) -> np.ndarray:
    """A strictly positive pmf: a smooth random tilt times cell noise."""
    x = (np.arange(n) + 0.5) / n
    shape = rng.normal(size=3) @ np.vstack([x, x * x, np.cos(2.0 * np.pi * x)])
    raw = _weights(n, mode) * np.exp(tilt * shape) * noise(n)
    return raw / raw.sum()


def _partition(n: int, mode: str):
    return measure.uniform_partition(n, mode, (0.0, 1.0) if mode == "lebesgue" else None)


def _affine_residual(values: np.ndarray, U: np.ndarray) -> float:
    """Largest residual of a least-squares fit of values by 1 and the features."""
    design = np.vstack([np.ones(values.size), U]).T
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return float(np.max(np.abs(design @ coef - values)))


def _gibbs_operation(n, mode, U, targets, generator, label="gibbs") -> Operation:
    weights = _weights(n, mode)

    def run():
        partition = _partition(n, mode)
        constraints = maxent.ConstraintSet(list(U), targets)
        solution = maxent.solve_maxent(constraints, partition, tolerance=1e-10, max_iterations=200)
        maxent.thermo_residuals(solution, fd_step=1e-4)
        return solution

    def check(solution):
        P = np.asarray(solution.pmf.masses)
        moments = U @ P
        if not np.all(np.abs(moments - targets) <= 1e-9):
            return f"moments {moments!r} against targets {targets!r}"
        live = P > 0.0
        log_density = np.log(P[live] / weights[live])
        if _affine_residual(log_density, U[:, live]) > 1e-8 * max(1.0, float(np.max(np.abs(log_density)))):
            return "log p is not affine in the features"
        if generator is not None:
            # Pythagorean identity: S(p*) - S(g) = KL(g || p*) up to beta . (moments - targets)
            s_solution = -float(np.sum(P[live] * np.log(P[live] / weights[live])))
            s_generator = -float(np.sum(generator * np.log(generator / weights)))
            kl = float(np.sum(generator * np.log(generator / P)))
            slack = 1e-10 + 2.0 * float(np.abs(solution.beta) @ np.abs(moments - targets))
            if abs((s_solution - s_generator) - kl) > slack:
                return f"S(p*) - S(g) = {s_solution - s_generator!r} but KL = {kl!r}"
        return None

    return Operation(f"{label}.{mode}.n{n}.M{len(U)}", run, check)


def gibbs_round() -> list[Operation]:
    rng = np.random.default_rng(PROBLEM_SEED)
    ops = []
    for n in SIZES:
        for mode in MODES:
            for count in (1, 2, 3):
                for draw in range(GIBBS_DRAWS):
                    U = _features(n, count)
                    generator = _generator(rng, n, mode, rng.uniform(0.0, 3.0),
                                           lambda size: rng.exponential(1.0, size))
                    ops.append(_gibbs_operation(n, mode, U, U @ generator, generator, f"gibbs{draw}"))
    # the stalled audit as reported: n = 100 Lebesgue cells, values x
    ops.append(_gibbs_operation(100, "lebesgue", _features(100, 1), np.array([0.5147]), None, "example"))
    return ops


def _escort_operation(n, mode, U, q, targets, generator) -> Operation:
    weights = _weights(n, mode)

    def run():
        partition = _partition(n, mode)
        constraints = maxent.ConstraintSet(list(U), targets, "escort", q)
        solution = tsallis.solve_tsallis_maxent(
            constraints, partition, tolerance=1e-10, max_outer=100, max_inner=500
        )
        tsallis.tsallis_thermo(solution, fd_step=1e-4)
        return solution

    def check(solution):
        density = np.asarray(solution.pmf.masses) / weights
        live = density > 0.0
        powers = density[live] ** q * weights[live]
        moments = U[:, live] @ powers / powers.sum()
        if not np.all(np.abs(moments - targets) <= 1e-9):
            return f"escort moments {moments!r} against targets {targets!r}"
        shape = density[live] ** (1.0 - q)
        if _affine_residual(shape, U[:, live]) > 1e-8 * float(np.max(np.abs(shape))):
            return "p^(1-q) is not affine in the features"
        s_solution = (1.0 - float(np.sum(powers))) / (q - 1.0)
        g = generator / weights
        s_generator = (1.0 - float(np.sum(g ** q * weights))) / (q - 1.0)
        if s_solution < s_generator - 1e-9 * max(1.0, abs(s_generator)):
            return f"S_q of the solution {s_solution!r} below the generator's {s_generator!r}"
        return None

    return Operation(f"escort.q{q}.{mode}.n{n}.M{len(U)}", run, check)


def escort_round() -> list[Operation]:
    """Generator tilts run from 0 (near-uniform) to 4 (strongly tilted).  The
    q < 1 problems take the strongest tilts, in random order, so that some of
    their cells fall past the q-exponential cut-off; the q > 1 problems share
    the rest, also in random order."""
    rng = np.random.default_rng(PROBLEM_SEED)
    problems = [(n, q) for n in SIZES for q in ESCORT_INDICES]
    tilts = np.linspace(0.0, 4.0, len(problems))
    split = sum(q > 1.0 for _, q in problems)
    mild, strong = iter(rng.permutation(tilts[:split])), iter(rng.permutation(tilts[split:]))
    ops = []
    for i, (n, q) in enumerate(problems):
        tilt = next(strong if q < 1.0 else mild)
        mode = MODES[i % 2]
        U = _features(n, 1 + i % 3)
        generator = _generator(rng, n, mode, tilt, lambda size: rng.uniform(0.5, 1.5, size))
        g = generator / _weights(n, mode)
        powers = g ** q * _weights(n, mode)
        ops.append(_escort_operation(n, mode, U, q, U @ powers / powers.sum(), generator))
    return ops


def build(name: str, seed: int) -> list[list[Operation]]:
    """Rounds of the named workload; the run cycles through them."""
    if name == "dyadic_tables":
        return dyadic_rounds(seed)
    return [gibbs_round() if name == "maxent_gibbs" else escort_round()]

