"""Batch command-line front end.

Reads a JSON problem (inline or from a file), dispatches to the library, and
emits deterministic JSON or CSV.  Exit codes: 0 success, 1 validation error,
2 solver non-convergence (residuals in the error payload), 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

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
    DensityVector,
    ProbabilityVector,
    induced_pmf,
    radon_nikodym,
    uniform_partition,
)
from .serialize import FIELDS, dumps, load_input, named, read_fields
from .tsallis import solve_tsallis_maxent, tsallis_thermo
from .verify import run_suites

__all__ = ["build_parser", "run", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for solvers
        raise ValueError(f"arguments: {message}")


def _parse_levels(text: str) -> tuple[int, ...]:
    """N or A..B, checked before the range is built."""
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        lo = hi = 0
    if not 1 <= lo <= hi <= MAX_BASE_EXPONENT:
        raise argparse.ArgumentTypeError(
            f"levels: expected N or A..B with 1 <= A <= B, under the cap of "
            f"{MAX_BASE_EXPONENT} (base grids hold at most 2^{MAX_BASE_EXPONENT} cells), "
            f"got {text!r}"
        )
    return tuple(range(lo, hi + 1))


# the options that override input fields; each verb takes those its
# serialize.FIELDS table names
_FLAG_OPTIONS = {
    "--kind": dict(help="measure family (see docs/schemas.md)"),
    "--q": dict(type=float, help="Tsallis index"),
    "--alpha": dict(type=float, help="Renyi index"),
    "--levels": dict(type=_parse_levels, help="dyadic levels: N or A..B"),
    "--base-resolution": dict(type=int, help="base-grid exponent B (2^B cells)"),
    "--tol": dict(type=float, help="solver tolerance"),
    "--seed": dict(type=int, help="seed for verify (default 0)"),
}


def build_parser() -> _Parser:
    """Each verb takes --input, --output and the flags of its FIELDS table;
    approx and demo also take --format.  Options left unset stay None, so
    they do not override their input fields."""
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
        if name in ("approx", "demo"):
            cmd.add_argument("--format", choices=("json", "csv"), default="csv")
        for field in FIELDS[name].values():
            if field.flag:
                cmd.add_argument(field.flag, **_FLAG_OPTIONS[field.flag])
    return parser


def _fields(spec: argparse.Namespace, needs_input: bool = True) -> dict:
    """The command's input fields, typed, with the flags applied."""
    if spec.input is None and needs_input:
        raise ValueError(f"input: the {spec.command} command needs --input")
    obj = {} if spec.input is None else load_input(spec.input)
    return read_fields(spec.command, obj, spec)


def _family(spec: argparse.Namespace, fields: dict) -> tuple[str, float | None]:
    """The measure family and, for renyi and tsallis, its index."""
    # an index flag picks the family when kind is omitted
    flagged = "renyi" if spec.alpha is not None else "tsallis" if spec.q is not None else None
    kind = fields["kind"] or flagged
    if kind is None:
        raise ValueError("kind: the input needs --kind or a 'kind' field")
    if kind not in ("renyi", "tsallis"):
        return kind, None
    if spec.q is not None and spec.alpha is not None:
        raise ValueError("q, alpha: give only one index")
    name = "alpha" if kind == "renyi" else "q"
    index = fields["index"] if fields[name] is None else fields[name]
    if index is None:
        raise ValueError(f"{name}: kind {kind!r} needs an index")
    return kind, index


def _pick(solution, names: str) -> dict:
    return {name: getattr(solution, name) for name in names.split()}


def _indexed(command: str, kind: str, index: float | None, value: float) -> dict:
    """The result, with the index only for the indexed families."""
    head = {"command": command, "kind": kind}
    return {**head, "value": value} if index is None else {**head, "index": index, "value": value}


def _run_entropy(spec: argparse.Namespace) -> dict:
    fields = _fields(spec)
    kind, index = _family(spec, fields)
    density, pmf = fields["density"], fields["pmf"]
    if density is None and pmf is None:
        raise ValueError("density: need 'density' or 'pmf' values")
    partition = fields["partition"]
    if partition is None:
        partition = uniform_partition((pmf if density is None else density).size)
    if density is not None:
        density = named({"values": "density"}, DensityVector, density, partition)
        pmf = induced_pmf(density)
    else:
        pmf = named({"masses": "pmf"}, ProbabilityVector, pmf)
        if kind != "measure":
            density = named({"masses": "pmf"}, radon_nikodym, pmf, partition)

    value = {
        "shannon": lambda: shannon_entropy(density),
        "measure": lambda: measure_entropy(pmf, partition),
        "renyi": lambda: renyi_entropy(density, index),
        "tsallis": lambda: tsallis_entropy(density, index),
    }[kind]()
    return _indexed("entropy", kind, index, value)


def _run_divergence(spec: argparse.Namespace) -> dict:
    fields = _fields(spec)
    kind, index = _family(spec, fields)
    P, R = (named({"masses": name}, ProbabilityVector, fields[name]) for name in ("p", "r"))
    if len(R) != len(P):
        raise ValueError(f"r: length {len(R)} does not match p length {len(P)}")
    partition = fields["partition"]
    if kind == "kl":
        return _indexed("divergence", kind, index, kl_divergence(P, R, partition))
    divergence = renyi_divergence if kind == "renyi" else tsallis_divergence
    return _indexed("divergence", kind, index, divergence(P, R, partition, index))


def _run_approx(spec: argparse.Namespace):
    fields = _fields(spec)
    kind, index = _family(spec, fields)
    interval, exponent, levels = fields["interval"], fields["base_exponent"], fields["levels"]
    if callable(fields["p"]) or callable(fields["r"]):
        # an expression is sampled on 2^exponent cells: refuse before allocating
        check_levels(levels, 2**exponent)

    def grid(name: str):
        """The grid density of a compiled expression or of its values."""
        given = fields[name]
        if callable(given):
            return BaseGridDensity.from_function(given, interval, base_exponent=exponent)
        return BaseGridDensity.from_values(given, interval, renormalize=True)

    # p is built, and refused, first
    p, r = (named({"values": name}, grid, name) for name in ("p", "r"))
    rows = convergence_table(p, r, index, kind, levels)
    if spec.format == "csv":
        return table_to_csv(rows)
    return {
        "command": "approx",
        "kind": kind,
        "index": index,
        # the grid built: a raw value array sets its own size, whatever the field says
        "base_exponent": p.values.size.bit_length() - 1,
        "reference_divergence": rows[0].reference_divergence,
        "rows": rows,
    }


# the library's names for the constraints' values and targets
_CONSTRAINTS = {"functions": "constraints[m].values", "targets": "constraints[m].target"}


def _run_maxent(spec: argparse.Namespace) -> dict:
    return named(_CONSTRAINTS, _maxent, _fields(spec))


def _maxent(fields: dict) -> dict:
    partition = fields["partition"]
    functions, targets = fields["constraints"]
    tolerance, fd_step = fields["tolerance"], fields["fd_step"]

    if fields["kind"] == "ordinary":
        solution = solve_maxent(ConstraintSet(functions, targets), partition,
                                tolerance=tolerance, max_iterations=fields["max_iterations"])
        grad_res, sens_res = thermo_residuals(solution, fd_step=fd_step)
        return {
            "command": "maxent",
            "kind": "shannon",
            **_pick(solution, "beta log_z"),
            "pmf": solution.pmf.masses,
            "density": solution.density.values,
            **_pick(solution, "achieved_moments entropy iterations"),
            "residuals": {
                "moment": solution.residual_norm,
                "entropy_identity": solution.entropy_identity,
                "log_z_gradient": grad_res,
                "entropy_sensitivity": sens_res,
            },
        }

    if fields["q"] is None:
        raise ValueError("q: escort maxent needs a Tsallis index")
    solution = solve_tsallis_maxent(
        ConstraintSet(functions, targets, "escort", fields["q"]), partition,
        tolerance=tolerance, max_outer=fields["max_outer"], max_inner=fields["max_inner"],
    )
    thermo = tsallis_thermo(solution, fd_step=fd_step)
    residuals = dict(solution.identity_residuals)
    residuals["moment"] = solution.residual_norm
    return {
        "command": "maxent",
        "kind": "tsallis",
        "q": solution.q,
        **_pick(solution, "beta beta_q q_mass zbar"),
        "pmf": solution.pmf.masses,
        "density": solution.density.values,
        **_pick(solution, "escort_moments entropy_q iterations"),
        "identity_residuals": residuals,
        "thermo_residuals": thermo,
    }


def _run_verify(spec: argparse.Namespace):
    fields = _fields(spec, needs_input=False)
    results = run_suites(fields["suites"], seed=fields["seed"], samples=fields["samples"])
    return {
        "command": "verify",
        "seed": fields["seed"],
        "samples": fields["samples"],
        "suites": [
            {"suite": result.suite, "passed": result.passed, "checks": result.checks}
            for result in results
        ],
        "passed": all(result.passed for result in results),
    }


def _run_demo(spec: argparse.Namespace):
    fields = _fields(spec, needs_input=False)
    report = entropy_nonextension_demo(
        fields["n_list"], fields["interval"], continuous_exponent=fields["resolution_exponent"]
    )
    if spec.format == "csv":
        return demo_to_csv(report)
    return {
        "command": "demo",
        "interval": list(fields["interval"]),
        "continuous_entropy": report.continuous_entropy,
        "continuous_negative": report.continuous_negative,
        "rows": report.rows,
    }


_RUNNERS = {
    "entropy": _run_entropy,
    "divergence": _run_divergence,
    "approx": _run_approx,
    "maxent": _run_maxent,
    "verify": _run_verify,
    "demo": _run_demo,
}


def _error(code: int, kind: str, exc: Exception, **extra) -> int:
    sys.stderr.write(dumps({"error": {"type": kind, "message": str(exc), **extra}}))
    return code


def run(spec: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code."""
    try:
        # overflow and invalid-value warnings would precede the JSON error
        # payload on stderr; a failed solve reports through that payload
        with np.errstate(all="ignore"):
            result = _RUNNERS[spec.command](spec)
    except ConvergenceError as exc:
        return _error(2, "non_convergence", exc,
                      residual_norm=exc.residual_norm, iterations=exc.iterations)
    except ValueError as exc:
        return _error(1, "validation", exc)
    except OSError as exc:
        return _error(3, "io", exc)

    text = result if isinstance(result, str) else dumps(result)
    try:
        if spec.output is None:
            sys.stdout.write(text)
        else:
            with open(spec.output, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        return _error(3, "io", exc)
    if spec.command == "verify" and not result["passed"]:
        return 1
    return 0


def main(argv=None) -> int:
    try:
        spec = build_parser().parse_args(argv)
    except ValueError as exc:
        return _error(1, "validation", exc)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
