"""Batch command-line front end.

Reads a JSON problem (inline or from a file), dispatches to the library, and
emits deterministic JSON or CSV.  Exit codes: 0 success, 1 validation error,
2 solver non-convergence (residuals in the error payload), 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .dyadic import (
    BaseGridDensity,
    check_levels,
    convergence_table,
    demo_to_csv,
    entropy_nonextension_demo,
    table_to_csv,
)
from .entropy import (
    kl_divergence,
    measure_entropy,
    renyi_divergence,
    renyi_entropy,
    shannon_entropy,
    tsallis_divergence,
    tsallis_entropy,
)
from .maxent import ConstraintSet, ConvergenceError, solve_maxent, thermo_residuals
from .measure import (
    MAX_BASE_EXPONENT,
    check_capped,
    induced_pmf,
    radon_nikodym,
    uniform_partition,
)
from .serialize import (
    density_from_obj,
    dumps,
    expression_function,
    json_ready,
    load_input,
    partition_from_obj,
    pmf_from_obj,
)
from .tsallis import solve_tsallis_maxent, tsallis_thermo
from .verify import SUITES, run_suites

__all__ = ["RunSpec", "run", "main"]

_ENTROPY_KINDS = ("shannon", "renyi", "tsallis", "measure")
_DIVERGENCE_KINDS = ("kl", "renyi", "tsallis")


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for solvers
        raise _UsageError(f"arguments: {message}")


@dataclass(frozen=True)
class RunSpec:
    """One CLI invocation, normalized."""

    command: str
    input: str | None = None
    output: str | None = None
    format: str = "json"
    kind: str | None = None
    q: float | None = None
    alpha: float | None = None
    levels: tuple[int, ...] | None = None
    base_resolution: int | None = None
    tol: float | None = None
    seed: int = 0


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
        else:
            lo = hi = int(text)
    except ValueError:
        raise _UsageError(f"levels: expected N or A..B with A <= B, got {text!r}") from None
    if hi > MAX_BASE_EXPONENT:
        raise _UsageError(
            f"levels: {hi} exceeds the cap of {MAX_BASE_EXPONENT} "
            f"(base grids hold at most 2^{MAX_BASE_EXPONENT} cells)"
        )
    return tuple(range(lo, hi + 1))


def build_parser() -> _Parser:
    parser = _Parser(
        prog="qentropy",
        description="Information measures, dyadic approximation, and maximum entropy "
        "on finite weighted measure spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("entropy", "entropy of a density or pmf"),
        ("divergence", "relative entropy between two pmfs"),
        ("approx", "dyadic approximation convergence table"),
        ("maxent", "classical or Tsallis maximum entropy"),
        ("verify", "run named invariant suites"),
        ("demo", "discrete-vs-continuous entropy counterexample"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--input", help="JSON file path or inline JSON object")
        cmd.add_argument("--output", help="write result here instead of stdout")
        cmd.add_argument("--format", choices=("json", "csv"), default=None)
        cmd.add_argument("--kind", help="measure family (see docs/schemas.md)")
        cmd.add_argument("--q", type=float, help="Tsallis index")
        cmd.add_argument("--alpha", type=float, help="Renyi index")
        cmd.add_argument("--levels", help="dyadic levels: N or A..B")
        cmd.add_argument("--base-resolution", type=int, dest="base_resolution",
                         help="base-grid exponent B (2^B cells)")
        cmd.add_argument("--tol", type=float, help="solver tolerance")
        cmd.add_argument("--seed", type=int, default=0, help="seed for verify")
    return parser


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    fmt = args.format
    if fmt is None:
        fmt = "csv" if args.command in ("approx", "demo") else "json"
    return RunSpec(
        command=args.command,
        input=args.input,
        output=args.output,
        format=fmt,
        kind=args.kind,
        q=args.q,
        alpha=args.alpha,
        levels=_parse_levels(args.levels) if args.levels else None,
        base_resolution=args.base_resolution,
        tol=args.tol,
        seed=args.seed,
    )


def _require_input(spec: RunSpec) -> dict:
    if spec.input is None:
        raise ValueError(f"input: the {spec.command} command needs --input")
    return load_input(spec.input)


def _pick_index(spec: RunSpec, obj: dict, kind: str) -> float:
    """Resolve the deformation index from flags or input fields."""
    if spec.q is not None and spec.alpha is not None:
        raise ValueError("q, alpha: give only one index")
    flag = spec.alpha if kind == "renyi" else spec.q
    field = obj.get("alpha" if kind == "renyi" else "q", obj.get("index"))
    value = flag if flag is not None else field
    if value is None:
        raise ValueError(f"{'alpha' if kind == 'renyi' else 'q'}: kind {kind!r} needs an index")
    return float(value)


def _resolve_kind(spec: RunSpec, obj: dict, allowed: tuple, field: str = "kind") -> str:
    kind = spec.kind if spec.kind is not None else obj.get(field)
    if kind is None:
        # an index flag picks the family when kind is omitted
        if spec.alpha is not None:
            kind = "renyi"
        elif spec.q is not None:
            kind = "tsallis"
    if kind not in allowed:
        raise ValueError(f"kind: expected one of {allowed}, got {kind!r}")
    return kind


def _run_entropy(spec: RunSpec) -> dict:
    obj = _require_input(spec)
    kind = _resolve_kind(spec, obj, _ENTROPY_KINDS)
    if "partition" in obj:
        partition = partition_from_obj(obj["partition"])
    else:
        probe = obj.get("density", obj.get("pmf"))
        if probe is None:
            raise ValueError("density: need 'density' or 'pmf' values")
        partition = uniform_partition(len(probe), "counting")
    if "density" in obj:
        density = density_from_obj(obj["density"], partition)
        pmf = induced_pmf(density)
    elif "pmf" in obj:
        pmf = pmf_from_obj(obj["pmf"])
        density = None if kind == "measure" else radon_nikodym(pmf, partition)
    else:
        raise ValueError("density: need 'density' or 'pmf' values")

    index = None
    if kind == "shannon":
        value = shannon_entropy(density)
    elif kind == "measure":
        value = measure_entropy(pmf, partition)
    elif kind == "renyi":
        index = _pick_index(spec, obj, "renyi")
        value = renyi_entropy(density, index)
    else:
        index = _pick_index(spec, obj, "tsallis")
        value = tsallis_entropy(density, index)
    out = {"command": "entropy", "kind": kind}
    if index is not None:
        out["index"] = index
    out["value"] = value
    return out


def _run_divergence(spec: RunSpec) -> dict:
    obj = _require_input(spec)
    kind = _resolve_kind(spec, obj, _DIVERGENCE_KINDS)
    if "p" not in obj or "r" not in obj:
        raise ValueError("p, r: divergence needs two pmf arrays")
    P = pmf_from_obj(obj["p"], "p")
    R = pmf_from_obj(obj["r"], "r")
    partition = partition_from_obj(obj["partition"]) if "partition" in obj else None
    index = None
    if kind == "kl":
        value = kl_divergence(P, R, partition)
    elif kind == "renyi":
        index = _pick_index(spec, obj, "renyi")
        value = renyi_divergence(P, R, partition, index)
    else:
        index = _pick_index(spec, obj, "tsallis")
        value = tsallis_divergence(P, R, partition, index)
    out = {"command": "divergence", "kind": kind}
    if index is not None:
        out["index"] = index
    out["value"] = value
    return out


def _exponent(spec: RunSpec, obj: dict, field: str, default: int, minimum: int = 1) -> int:
    """Base exponent from --base-resolution or the input field, within the cap."""
    if spec.base_resolution is not None:
        return check_capped(spec.base_resolution, "--base-resolution", minimum)
    return check_capped(int(obj.get(field, default)), field, minimum)


def _grid_density(obj, interval, exponent: int, field: str) -> BaseGridDensity:
    if isinstance(obj, dict) and "expr" in obj:
        return BaseGridDensity.from_function(
            expression_function(obj["expr"]), interval, base_exponent=exponent
        )
    if isinstance(obj, (list, tuple)):
        return BaseGridDensity.from_values(obj, interval, renormalize=True)
    raise ValueError(f"{field}: expected {{\"expr\": ...}} or a value array")


def _run_approx(spec: RunSpec):
    obj = _require_input(spec)
    kind = _resolve_kind(spec, obj, ("renyi", "tsallis"))
    index = _pick_index(spec, obj, kind)
    interval = obj.get("interval", (0.0, 1.0))
    if not (isinstance(interval, (list, tuple)) and len(interval) == 2):
        raise ValueError(f"interval: expected [a, b], got {interval!r}")
    interval = (float(interval[0]), float(interval[1]))
    exponent = _exponent(spec, obj, "base_exponent", 20)
    levels = spec.levels if spec.levels is not None else obj.get("levels")
    if levels is None:
        raise ValueError("levels: the approx command needs --levels or a 'levels' field")
    levels = [int(n) for n in levels]
    if "p" not in obj or "r" not in obj:
        raise ValueError("p, r: approx needs two densities")
    if any(isinstance(obj[field], dict) for field in ("p", "r")):
        # an expression is sampled on 2^exponent cells: refuse before allocating
        check_levels(levels, 2**exponent)
    p = _grid_density(obj["p"], interval, exponent, "p")
    r = _grid_density(obj["r"], interval, exponent, "r")
    rows = convergence_table(p, r, index, kind, levels)
    if spec.format == "csv":
        return table_to_csv(rows)
    return {
        "command": "approx",
        "kind": kind,
        "index": index,
        "base_exponent": exponent,
        "reference_divergence": rows[0].reference_divergence,
        "rows": [json_ready(row) for row in rows],
    }


def _run_maxent(spec: RunSpec) -> dict:
    obj = _require_input(spec)
    kind = obj.get("kind", "ordinary")
    if spec.kind is not None:
        kind = {"shannon": "ordinary", "tsallis": "escort"}.get(spec.kind, spec.kind)
    if kind not in ("ordinary", "escort"):
        raise ValueError(f"kind: expected 'ordinary' or 'escort', got {kind!r}")
    if "partition" not in obj or "constraints" not in obj:
        raise ValueError("partition, constraints: maxent needs both")
    partition = partition_from_obj(obj["partition"])
    entries = obj["constraints"]
    if not isinstance(entries, list):
        raise ValueError("constraints: expected a list of {values, target} objects")
    functions, targets = [], []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "values" not in entry or "target" not in entry:
            raise ValueError(f"constraints[{k}]: need 'values' and 'target'")
        functions.append(np.asarray(entry["values"], dtype=float))
        targets.append(float(entry["target"]))
    tolerance = spec.tol if spec.tol is not None else float(obj.get("tolerance", 1e-10))
    fd_step = float(obj.get("fd_step", 1e-4))

    if kind == "ordinary":
        constraints = ConstraintSet(functions, targets)
        solution = solve_maxent(
            constraints,
            partition,
            tolerance=tolerance,
            max_iterations=int(obj.get("max_iterations", 200)),
        )
        grad_res, sens_res = thermo_residuals(solution, fd_step=fd_step)
        identity = abs(
            solution.entropy
            - (solution.log_z + float(solution.beta @ solution.achieved_moments))
        )
        return {
            "command": "maxent",
            "kind": "shannon",
            "beta": json_ready(solution.beta),
            "log_z": solution.log_z,
            "pmf": json_ready(solution.pmf.masses),
            "density": json_ready(solution.density.values),
            "achieved_moments": json_ready(solution.achieved_moments),
            "entropy": solution.entropy,
            "iterations": solution.iterations,
            "residuals": {
                "moment": solution.residual_norm,
                "entropy_identity": identity,
                "log_z_gradient": json_ready(grad_res),
                "entropy_sensitivity": json_ready(sens_res),
            },
        }

    q = spec.q if spec.q is not None else obj.get("q")
    if q is None:
        raise ValueError("q: escort maxent needs a Tsallis index")
    constraints = ConstraintSet(functions, targets, "escort", float(q))
    solution = solve_tsallis_maxent(
        constraints,
        partition,
        tolerance=tolerance,
        max_outer=int(obj.get("max_outer", 100)),
        max_inner=int(obj.get("max_inner", 500)),
    )
    thermo = tsallis_thermo(solution, fd_step=fd_step)
    residuals = dict(solution.identity_residuals)
    residuals["moment"] = solution.residual_norm
    return {
        "command": "maxent",
        "kind": "tsallis",
        "q": solution.q.q,
        "beta": json_ready(solution.beta),
        "beta_q": json_ready(solution.beta_q),
        "q_mass": solution.q_mass,
        "zbar": solution.zbar,
        "pmf": json_ready(solution.pmf.masses),
        "density": json_ready(solution.density.values),
        "escort_moments": json_ready(solution.escort_moments),
        "entropy_q": solution.entropy_q,
        "iterations": list(solution.iterations),
        "identity_residuals": json_ready(residuals),
        "thermo_residuals": json_ready(thermo),
    }


def _run_verify(spec: RunSpec):
    obj = load_input(spec.input) if spec.input is not None else {}
    suites = obj.get("suites")
    if suites is not None:
        unknown = [s for s in suites if s not in SUITES]
        if unknown:
            raise ValueError(f"suites: unknown suite names {unknown}; choose from {sorted(SUITES)}")
    seed = int(obj.get("seed", spec.seed))
    samples = int(obj.get("samples", 2000))
    results = run_suites(suites, seed=seed, samples=samples)
    out = {
        "command": "verify",
        "seed": seed,
        "samples": samples,
        "suites": [
            {
                "suite": result.suite,
                "passed": result.passed,
                "checks": [
                    {
                        "name": check.name,
                        "passed": check.passed,
                        "worst": check.worst,
                        "bound": check.bound,
                    }
                    for check in result.checks
                ],
            }
            for result in results
        ],
        "passed": all(result.passed for result in results),
    }
    return out


def _run_demo(spec: RunSpec):
    obj = load_input(spec.input) if spec.input is not None else {}
    n_list = obj.get("n_list", [2 ** k for k in range(1, 11)])
    interval = obj.get("interval", (0.0, 1.0))
    if not (isinstance(interval, (list, tuple)) and len(interval) == 2):
        raise ValueError(f"interval: expected [a, b], got {interval!r}")
    exponent = _exponent(spec, obj, "resolution_exponent", 16, minimum=0)
    report = entropy_nonextension_demo(
        [int(n) for n in n_list],
        (float(interval[0]), float(interval[1])),
        continuous_exponent=exponent,
    )
    if spec.format == "csv":
        return demo_to_csv(report)
    return {
        "command": "demo",
        "interval": [float(interval[0]), float(interval[1])],
        "continuous_entropy": report.continuous_entropy,
        "continuous_negative": report.continuous_negative,
        "rows": [json_ready(row) for row in report.rows],
    }


_RUNNERS = {
    "entropy": _run_entropy,
    "divergence": _run_divergence,
    "approx": _run_approx,
    "maxent": _run_maxent,
    "verify": _run_verify,
    "demo": _run_demo,
}


def run(spec: RunSpec) -> int:
    """Execute one command; returns the process exit code."""
    try:
        result = _RUNNERS[spec.command](spec)
    except ConvergenceError as exc:
        payload = {
            "error": {
                "type": "non_convergence",
                "message": str(exc),
                "residual_norm": json_ready(exc.residual_norm),
                "iterations": exc.iterations,
            }
        }
        sys.stderr.write(dumps(payload))
        return 2
    except (ValueError, KeyError) as exc:
        payload = {"error": {"type": "validation", "message": str(exc)}}
        sys.stderr.write(dumps(payload))
        return 1
    except OSError as exc:
        payload = {"error": {"type": "io", "message": str(exc)}}
        sys.stderr.write(dumps(payload))
        return 3

    text = result if isinstance(result, str) else dumps(result)
    try:
        if spec.output is None:
            sys.stdout.write(text)
        else:
            with open(spec.output, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        sys.stderr.write(dumps({"error": {"type": "io", "message": str(exc)}}))
        return 3
    if spec.command == "verify" and not result["passed"]:
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        spec = _spec_from_args(args)
    except _UsageError as exc:
        sys.stderr.write(dumps({"error": {"type": "validation", "message": str(exc)}}))
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
