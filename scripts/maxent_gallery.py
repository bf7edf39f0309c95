"""Gallery of maximum-entropy solves with their self-consistency checks.

Runs a small set of constrained problems through both solvers and prints the
multipliers, the solution pmf, and every identity the solutions are supposed
to satisfy, so a change to either solver shows up as a drifting residual.

    python3 scripts/maxent_gallery.py
    python3 scripts/maxent_gallery.py --q 1.5 --target 0.4
"""

import argparse
import sys

import numpy as np

from qentropy import (
    ConstraintSet,
    solve_maxent,
    solve_tsallis_maxent,
    thermo_residuals,
    tsallis_thermo,
    uniform_partition,
)


def fmt(arr):
    return "[" + ", ".join(f"{v:.8f}" for v in np.atleast_1d(arr)) + "]"


def classical_section(target):
    print("=== classical: die face average pinned ===")
    u = np.arange(1.0, 7.0)
    sol = solve_maxent(ConstraintSet([u], [target]), uniform_partition(6))
    grad, sens = thermo_residuals(sol)
    print(f"target {target}, beta {fmt(sol.beta)}, log Z {sol.log_z:.10f}")
    print(f"pmf {fmt(sol.pmf.masses)}")
    print(f"entropy {sol.entropy:.10f}, iterations {sol.iterations}")
    print(f"moment residual      {sol.residual_norm:.3e}")
    print(f"entropy identity     {sol.entropy_identity:.3e}")
    print(f"log Z gradient check {float(np.max(grad)):.3e}")
    print(f"sensitivity check    {float(np.max(sens)):.3e}")


def escort_section(q, target):
    print(f"\n=== escort: two-point problem, q={q}, escort mean {target} ===")
    constraints = ConstraintSet([[0.0, 1.0]], [target], "escort", q)
    sol = solve_tsallis_maxent(constraints, uniform_partition(2), tolerance=1e-12)
    print(f"pmf {fmt(sol.pmf.masses)}, q-mass {sol.q_mass:.10f}, zbar {sol.zbar:.10f}")
    print(f"beta {fmt(sol.beta)}, beta_q {fmt(sol.beta_q)}")
    print(f"deformed entropy {sol.entropy_q:.10f}, iterations {tuple(sol.iterations)}")
    checks = dict(sol.identity_residuals)
    checks.update(tsallis_thermo(sol))
    for name, value in checks.items():
        # thermo entries are per-constraint arrays, identity entries scalars
        print(f"{name:<22} {float(np.max(np.atleast_1d(value))):.3e}")


def crossover_section(q, target):
    print(f"\n=== escort solver through the classical band (q -> 1) ===")
    u = np.arange(0.0, 4.0)
    part = uniform_partition(4)
    for qq in (q, 1.0 + 1e-5, 1.0):
        constraints = ConstraintSet([u], [target * 3.0], "escort", qq)
        sol = solve_tsallis_maxent(constraints, part, tolerance=1e-12)
        print(f"q={qq:<12g} pmf {fmt(sol.pmf.masses)} entropy_q {sol.entropy_q:.10f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", type=float, default=2.0, help="deformation index")
    parser.add_argument("--target", type=float, default=0.3, help="escort moment target")
    parser.add_argument("--mean", type=float, default=4.5, help="die average target")
    args = parser.parse_args(argv)
    classical_section(args.mean)
    escort_section(args.q, args.target)
    crossover_section(args.q, args.target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
