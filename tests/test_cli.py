"""End-to-end CLI runs: verbs, formats, determinism, exit codes."""

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qentropy.cli import build_parser, main
from qentropy.serialize import FIELDS

DICE_SPEC = (
    '{"partition": {"n": 6}, '
    '"constraints": [{"values": [1, 2, 3, 4, 5, 6], "target": 4.5}]}'
)
ESCORT_SPEC = (
    '{"partition": {"n": 2}, '
    '"constraints": [{"values": [0, 1], "target": 0.3}], "q": 2.0}'
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_tsallis_pmf(capsys):
    code, out, err = run_cli(
        capsys, "entropy", "--kind", "tsallis", "--q", "2", "--input", '{"pmf": [0.5, 0.5]}'
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["kind"] == "tsallis"
    assert payload["index"] == 2.0
    assert payload["value"] == 0.5


def test_entropy_shannon_density(capsys):
    spec = '{"partition": {"n": 2, "mode": "uniform_probability"}, "density": [1.0, 1.0]}'
    code, out, _ = run_cli(capsys, "entropy", "--kind", "shannon", "--input", spec)
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_entropy_measure_kind(capsys):
    spec = '{"partition": {"n": 4, "mode": "uniform_probability"}, "pmf": [0.25, 0.25, 0.25, 0.25]}'
    code, out, _ = run_cli(capsys, "entropy", "--kind", "measure", "--input", spec)
    assert code == 0
    assert abs(json.loads(out)["value"]) < 1e-15


def test_divergence_kl_frozen_value(capsys):
    code, out, _ = run_cli(
        capsys, "divergence", "--kind", "kl", "--input", '{"p": [0.8, 0.2], "r": [0.5, 0.5]}'
    )
    assert code == 0
    assert math.isclose(json.loads(out)["value"], 0.1927447570217575, rel_tol=0, abs_tol=1e-15)


def test_divergence_infinite_value_serializes_as_string(capsys):
    code, out, _ = run_cli(
        capsys, "divergence", "--kind", "kl", "--input", '{"p": [1.0, 0.0], "r": [0.0, 1.0]}'
    )
    assert code == 0
    assert json.loads(out)["value"] == "inf"


def test_approx_csv_table(capsys):
    spec = '{"p": {"expr": "2*x"}, "r": {"expr": "1.0"}}'
    code, out, _ = run_cli(
        capsys,
        "approx", "--alpha", "2", "--levels", "2..4", "--base-resolution", "8", "--input", spec,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level,discrete_divergence,reference_divergence,abs_error"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "2"
    # every numeric field round-trips through float()
    for line in lines[1:]:
        for field in line.split(",")[1:]:
            float(field)


def test_approx_json_format(capsys):
    spec = '{"p": {"expr": "2*x"}, "r": {"expr": "1.0"}, "levels": [2, 3]}'
    code, out, _ = run_cli(
        capsys, "approx", "--alpha", "2", "--format", "json", "--base-resolution", "6", "--input", spec
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "renyi"
    assert [row["level"] for row in payload["rows"]] == [2, 3]


def test_maxent_shannon_dice(capsys):
    code, out, _ = run_cli(capsys, "maxent", "--kind", "shannon", "--input", DICE_SPEC)
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["beta"][0], -0.37104893808103334, rel_tol=0, abs_tol=1e-9)
    assert payload["residuals"]["moment"] < 1e-10
    assert payload["residuals"]["entropy_identity"] < 1e-12
    assert payload["residuals"]["log_z_gradient"][0] < 1e-6


def test_maxent_escort_two_point(capsys):
    code, out, _ = run_cli(capsys, "maxent", "--kind", "tsallis", "--input", ESCORT_SPEC)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "tsallis"
    assert math.isclose(payload["pmf"][0], 0.6043560762610400, rel_tol=0, abs_tol=1e-8)
    assert payload["identity_residuals"]["multiplier_scaling"] == 0.0
    assert payload["thermo_residuals"]["legendre_gap"] < 1e-8


def test_maxent_escort_in_the_classical_band_reads_q_one(capsys):
    # an index within 1e-9 of 1 is the classical problem, and the output says so
    code, out, _ = run_cli(capsys, "maxent", "--kind", "tsallis", "--q", "1.0000000005",
                           "--input", ESCORT_SPEC)
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 1.0
    assert math.isclose(payload["q_mass"], 1.0, rel_tol=0, abs_tol=1e-15)


def test_demo_csv_default(capsys):
    code, out, _ = run_cli(capsys, "demo", "--base-resolution", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,discrete_entropy,continuous_entropy"
    assert len(lines) == 11
    assert lines[1] == "2,0.6931471805599453,0.0"


def test_demo_json_negative_interval(capsys):
    code, out, _ = run_cli(
        capsys, "demo", "--format", "json", "--base-resolution", "10",
        "--input", '{"n_list": [2, 4], "interval": [0.0, 0.5]}',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["continuous_negative"] is True
    assert math.isclose(payload["continuous_entropy"], math.log(0.5), rel_tol=0, abs_tol=1e-12)


def test_verify_verb_small_run(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--seed", "3", "--input", '{"samples": 200, "suites": ["qcalc", "measures"]}'
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [s["suite"] for s in payload["suites"]] == ["qcalc", "measures"]


def test_output_goes_to_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "entropy", "--kind", "shannon",
        "--input", '{"pmf": [0.5, 0.5]}', "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["value"] == math.log(2.0)


def test_identical_runs_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "maxent", "--kind", "tsallis", "--input", ESCORT_SPEC)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_validation_failures_exit_one(capsys):
    cases = [
        ("entropy", "--kind", "nonsense", "--input", '{"pmf": [0.5, 0.5]}'),
        ("entropy", "--kind", "shannon"),  # no input
        ("entropy", "--kind", "shannon", "--input", '{"pmf": [0.5, 0.6]}'),
        ("entropy", "--kind", "renyi", "--input", '{"pmf": [0.5, 0.5]}'),  # no index
        ("divergence", "--kind", "kl", "--input", '{"p": [1.0]}'),
        ("approx", "--alpha", "2", "--input", '{"p": {"expr": "2*x"}, "r": {"expr": "1"}}'),
        ("maxent", "--input", '{"partition": {"n": 2}}'),
        ("verify", "--input", '{"suites": ["nope"]}'),
        ("entropy", "--kind", "shannon", "--input", "{bad json"),
        ("entropy", "--kind", "renyi", "--q", "2", "--alpha", "2", "--input", '{"pmf": [0.5, 0.5]}'),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert json.loads(err)["error"]["type"] == "validation"


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "explode")[0] == 1
    assert run_cli(capsys, "approx", "--levels", "5..2", "--input", "{}")[0] == 1
    assert run_cli(capsys, "approx", "--levels", "abc", "--input", "{}")[0] == 1


def test_nonconvergence_exits_two(capsys):
    # two Newton steps cannot reach 1e-14 from the zero start
    spec = (
        '{"partition": {"n": 6}, '
        '"constraints": [{"values": [1, 2, 3, 4, 5, 6], "target": 4.5}], '
        '"max_iterations": 2}'
    )
    code, out, err = run_cli(capsys, "maxent", "--kind", "shannon", "--tol", "1e-14",
                             "--input", spec)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "non_convergence"
    assert payload["error"]["iterations"] == 2
    assert payload["error"]["residual_norm"] > 0.0


def test_jointly_infeasible_targets_exit_one(capsys):
    # (E x, E x^2, E sin 3x) = (0.4, 0.25, 0.3) has no pmf on [0, 1]
    x = [(k + 0.5) / 1000 for k in range(1000)]
    spec = json.dumps({
        "partition": {"n": 1000, "mode": "lebesgue", "interval": [0.0, 1.0]},
        "constraints": [
            {"values": x, "target": 0.4},
            {"values": [v * v for v in x], "target": 0.25},
            {"values": [math.sin(3.0 * v) for v in x], "target": 0.3},
        ],
    })
    code, out, err = run_cli(capsys, "maxent", "--kind", "shannon", "--input", spec)
    assert code == 1
    assert out == ""
    assert "jointly infeasible" in json.loads(err)["error"]["message"]


def test_io_failures_exit_three(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "entropy", "--kind", "shannon", "--input", str(tmp_path / "missing.json")
    )
    assert code == 3
    assert json.loads(err)["error"]["type"] == "io"
    code, _, err = run_cli(
        capsys, "entropy", "--kind", "shannon", "--input", '{"pmf": [0.5, 0.5]}',
        "--output", str(tmp_path / "no" / "such" / "dir" / "out.json"),
    )
    assert code == 3


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "qentropy.cli", "entropy", "--kind", "shannon",
         "--input", '{"pmf": [0.5, 0.5]}'],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert math.isclose(json.loads(proc.stdout)["value"], math.log(2.0), rel_tol=0, abs_tol=0)


@pytest.mark.parametrize("index_flag", ["--q", "--alpha"])
def test_index_flag_picks_the_family(capsys, index_flag):
    # with no --kind, the index flag alone selects renyi vs tsallis
    code, out, _ = run_cli(
        capsys, "entropy", index_flag, "2", "--input", '{"pmf": [0.5, 0.5]}'
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == ("renyi" if index_flag == "--alpha" else "tsallis")


def validation_message(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, ""), argv
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    return error["message"]


# each cap is checked before anything of that size is allocated, so these
# runs stay small even though they ask for more than 2^24 cells


def test_base_resolution_flag_is_capped(capsys):
    spec = '{"p": {"expr": "2*x"}, "r": {"expr": "1.0"}, "levels": [2]}'
    message = validation_message(
        capsys, "approx", "--alpha", "2", "--base-resolution", "25", "--input", spec
    )
    assert "--base-resolution" in message and "2^24" in message


def test_base_exponent_field_is_capped(capsys):
    spec = '{"p": {"expr": "2*x"}, "r": {"expr": "1.0"}, "levels": [2], "base_exponent": 25}'
    message = validation_message(capsys, "approx", "--alpha", "2", "--input", spec)
    assert "base_exponent" in message and "2^24" in message


def test_resolution_exponent_field_is_capped(capsys):
    message = validation_message(capsys, "demo", "--input", '{"resolution_exponent": 25}')
    assert "resolution_exponent" in message and "2^24" in message
    message = validation_message(capsys, "demo", "--base-resolution", "25")
    assert "--base-resolution" in message and "2^24" in message


def test_demo_cell_counts_are_capped(capsys):
    message = validation_message(capsys, "demo", "--input", '{"n_list": [2, 16777217]}')
    assert "n_list" in message and "2^24" in message


def test_levels_are_capped_when_parsed(capsys):
    message = validation_message(
        capsys, "approx", "--alpha", "2", "--levels", "2..25", "--input", "{}"
    )
    assert "cap of 24" in message


def test_levels_are_checked_before_the_grids_are_built(capsys):
    # p would fail its own evaluation (log of a negative number), so the
    # level error shows that the levels were checked first
    spec = '{"p": {"expr": "log(x - 2)"}, "r": {"expr": "1.0"}, "levels": [2, 9]}'
    message = validation_message(
        capsys, "approx", "--alpha", "2", "--base-resolution", "8", "--input", spec
    )
    assert message.startswith("levels: 2^9 dyadic bins exceed the 256-cell base grid")


@pytest.mark.parametrize("partition, field", [
    ('{"n": null}', "partition.n"),
    ('{"n": "x"}', "partition.n"),
    ('{"n": true}', "partition.n"),
    ('{"n": 2.5}', "partition.n"),  # once truncated to 2
    ('{"n": 0}', "partition.n"),
    ('{"n": 16777217}', "partition.n"),
    ('{"n": 3, "mode": "lebesgue", "interval": [null, 1]}', "partition.interval[0]"),
    ('{"cells": "a", "weights": [1.0]}', "partition"),  # once read as the cell 'a'
    ('{"cells": ["a"], "weights": 1.0}', "partition"),
    ('{"cells": ["a"], "weights": {"a": 1.0}}', "partition"),
])
def test_partition_fields_are_checked_before_the_partition_is_built(capsys, partition, field):
    spec = '{"partition": %s, "pmf": [1.0]}' % partition
    message = validation_message(capsys, "entropy", "--kind", "measure", "--input", spec)
    assert message.startswith(field + ":")


def test_an_interval_whose_width_overflows_is_refused_under_its_field(capsys):
    spec = '{"p": [1, 2], "r": [1, 1], "interval": [-1e308, 1e308]}'
    message = validation_message(capsys, "approx", "--kind", "renyi", "--alpha", "2", "--levels", "1",
                                 "--input", spec)
    assert message == "interval: the width b - a of (-1e+308, 1e+308) overflows; need a finite width"
    spec = ('{"partition": {"n": 2, "mode": "lebesgue", "interval": [-1e308, 1e308]}, '
            '"density": [1, 1]}')
    message = validation_message(capsys, "entropy", "--kind", "shannon", "--input", spec)
    assert message.startswith("partition.interval: the width b - a of (-1e+308, 1e+308) overflows")


@pytest.mark.parametrize("spec, message", [
    ('{"p": [1, 2], "r": [1, 1], "interval": [0, 1e-320]}',
     "interval: (0.0, 1e-320) cannot carry a density on 2 cells"),
    ('{"p": {"expr": "2*x"}, "r": {"expr": "1.0"}, "interval": [0, 1e-310], "base_exponent": 4}',
     "interval: (0.0, 1e-310) cannot carry a density on 16 cells"),
])
def test_an_interval_too_narrow_for_the_grid_is_refused(capsys, spec, message):
    argv = ("approx", "--kind", "renyi", "--alpha", "2", "--levels", "1", "--input", spec)
    assert validation_message(capsys, *argv) == message


@pytest.mark.parametrize("verb, fields", [
    (("maxent",), '"constraints": [{"values": [1, 2, 3, 4], "target": 2}]'),
    (("entropy", "--kind", "shannon"), '"density": [1, 1, 1, 1]'),
])
def test_a_lebesgue_partition_too_narrow_for_its_cells_is_refused(capsys, verb, fields):
    # maxent exited 2 with "line search stalled at residual inf", and entropy
    # blamed the density's values
    spec = '{"partition": {"n": 4, "mode": "lebesgue", "interval": [0, 1e-320]}, %s}' % fields
    message = validation_message(capsys, *verb, "--input", spec)
    assert message == "partition.interval: (0.0, 1e-320) cannot carry a density on 4 cells"


@pytest.mark.parametrize("interval, message", [
    ("[0, 1e-320]", "partition.interval: (0.0, 1e-320) cannot carry a density on 4 cells"),
    ("[-1e308, 1e308]", "partition.interval: the width b - a of (-1e+308, 1e+308) overflows; "
                        "need a finite width"),
])
def test_a_partition_interval_is_refused_under_one_name(capsys, interval, message):
    # the narrow interval was reported as "interval:", the wide one as
    # "partition.interval:"
    spec = '{"partition": {"n": 4, "mode": "lebesgue", "interval": %s}, "density": [1, 1, 1, 1]}' % interval
    assert validation_message(capsys, "entropy", "--kind", "shannon", "--input", spec) == message
    # a top-level interval keeps its own name
    spec = '{"n_list": [2], "interval": %s}' % interval
    assert validation_message(capsys, "demo", "--input", spec).startswith("interval: ")


def test_partition_length_mismatch_exits_one(capsys):
    # 2e6 cells is under the cap; the length check then fails without a
    # per-cell build (6.8 s and 424 MiB when each cell was an object)
    spec = '{"partition": {"n": 2000000}, "pmf": [1.0]}'
    message = validation_message(capsys, "entropy", "--kind", "measure", "--input", spec)
    assert "does not match" in message


def test_numpy_warnings_stay_off_stderr():
    # exp overflows on the grid and the renormalization divides inf by inf;
    # stderr must hold only the payload
    spec = '{"p": {"expr": "exp(x)"}, "r": {"expr": "1"}, "interval": [0, 1000], "levels": [1]}'
    proc = subprocess.run(
        [sys.executable, "-m", "qentropy.cli", "approx", "--kind", "renyi", "--alpha", "2",
         "--base-resolution", "2", "--input", spec],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == {
        "type": "validation", "message": "p: entries must be finite and nonnegative"}


UNIT = '{"pmf": [1.0]}'
SAME_PAIR = '{"p": [0.3, 0.7], "r": [0.3, 0.7]}'
FLAT_PAIR = '{"p": {"expr": "1.0"}, "r": {"expr": "1.0"}, "base_exponent": 10, "levels": [1, 2, 3]}'


@pytest.mark.parametrize("argv", [
    ("entropy", "--kind", "measure", "--input", UNIT),
    ("entropy", "--kind", "renyi", "--alpha", "2", "--input", UNIT),
    ("entropy", "--kind", "tsallis", "--q", "0.5", "--input", UNIT),
    ("divergence", "--kind", "renyi", "--alpha", "0.5", "--input",
     '{"p": [0.5, 0.5], "r": [0.5, 0.5]}'),
    ("divergence", "--kind", "tsallis", "--q", "0.5", "--input", SAME_PAIR),
    ("approx", "--kind", "renyi", "--alpha", "0.5", "--input", FLAT_PAIR),
    ("approx", "--kind", "renyi", "--alpha", "0.5", "--format", "json", "--input", FLAT_PAIR),
    ("demo", "--input", '{"n_list": [1]}'),
    ("demo", "--format", "json", "--input", '{"n_list": [1]}'),
], ids=lambda argv: " ".join(arg for arg in argv if arg[0] != "{"))
def test_a_zero_value_prints_without_a_sign(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "0.0" in out and "-0.0" not in out


@pytest.mark.parametrize("kind, flag", [("renyi", "--alpha"), ("tsallis", "--q")])
def test_divergence_of_a_pmf_from_itself_is_exactly_zero(capsys, kind, flag):
    # the power sum read -1.1e-16 (Renyi) and 2.2e-16 (Tsallis) here
    code, out, err = run_cli(capsys, "divergence", "--kind", kind, flag, "0.5", "--input",
                             '{"p": [0.2, 0.8], "r": [0.2, 0.8]}')
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == 0.0 and '"value": 0.0\n' in out


@pytest.mark.parametrize("scale", ["1e6", "1e8", "1e308"])
def test_feature_scale_exit_codes(capsys, scale):
    # 1e6 and 1e8 exited 2 after stalling, and 1e308 exited 1 while the
    # curvature of the raw features overflowed; in span units each is the
    # unit-span problem
    def pmf(top, target):
        spec = (f'{{"partition": {{"n": 2}}, '
                f'"constraints": [{{"values": [0, {top}], "target": {target!r}}}]}}')
        code, out, err = run_cli(capsys, "maxent", "--input", spec)
        assert (code, err) == (0, "")
        return json.loads(out)["pmf"]

    assert pmf(scale, float(scale) / 10)[0] == pytest.approx(pmf(1, 0.1)[0], rel=1e-12)


FROZEN = Path(__file__).resolve().parent / "frozen"
FROZEN_MAXENT = {
    "maxent_dice": DICE_SPEC,
    "maxent_escort_lebesgue": (
        '{"partition": {"n": 5, "mode": "lebesgue", "interval": [0, 1]}, "constraints": ['
        '{"values": [0.1, 0.3, 0.5, 0.7, 0.9], "target": 0.4}, '
        '{"values": [0.01, 0.09, 0.25, 0.49, 0.81], "target": 0.25}], '
        '"kind": "escort", "q": 0.7}'
    ),
    "maxent_no_constraints_gibbs": '{"partition": {"n": 6}, "constraints": []}',
    "maxent_no_constraints_escort": (
        '{"partition": {"n": 6}, "constraints": [], "kind": "escort", "q": 0.7}'
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_MAXENT))
def test_maxent_output_is_frozen(capsys, name):
    # tests/frozen holds the full stdout of each call, byte for byte
    code, out, err = run_cli(capsys, "maxent", "--input", FROZEN_MAXENT[name])
    assert (code, err) == (0, "")
    assert out == (FROZEN / f"{name}.json").read_text(encoding="utf-8")


PMF4 = '{"partition": {"n": 4, "mode": "lebesgue", "interval": [0, 2]}, "pmf": [0.1, 0.2, 0.3, 0.4]}'
PAIR4 = '{"p": [0.1, 0.2, 0.3, 0.4], "r": [0.4, 0.3, 0.2, 0.1]}'
GRID_PAIR = (
    '{"p": {"expr": "1 + 0.5*sin(2*pi*x)"}, "r": {"expr": "0.5 + x"}, '
    '"base_exponent": 12, "levels": [1, 2, 3, 4, 5, 6]}'
)
VALUES_PAIR = (
    '{"p": [1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1], '
    '"r": [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3], "interval": [1, 3], "levels": [1, 2, 3, 4]}'
)
# 1.0000000005 lies inside the classical band, so it reads as Shannon and KL
INDICES = {"0.5": "0.5", "2": "2", "band": "1.0000000005"}
FROZEN_OUTPUTS = {
    **{
        f"{verb}_{kind}_{tag}": (verb, "--kind", kind, flag, index, "--input", spec)
        for verb, spec in (("entropy", PMF4), ("divergence", PAIR4))
        for kind, flag in (("renyi", "--alpha"), ("tsallis", "--q"))
        for tag, index in INDICES.items()
    },
    "approx_csv": ("approx", "--kind", "renyi", "--alpha", "2", "--input", GRID_PAIR),
    "approx_json": ("approx", "--kind", "tsallis", "--q", "0.5", "--format", "json",
                    "--input", GRID_PAIR),
    "demo": ("demo",),
    # raw values on [1, 3]: the cell width is 1/8 and the values are renormalized
    "approx_values_interval": ("approx", "--kind", "tsallis", "--q", "2", "--format", "json",
                               "--input", VALUES_PAIR),
    "verify_seed_0": ("verify", "--seed", "0"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_OUTPUTS))
def test_output_is_frozen(capsys, name):
    code, out, err = run_cli(capsys, *FROZEN_OUTPUTS[name])
    assert (code, err) == (0, "")
    suffix = ".csv" if name in ("approx_csv", "demo") else ".json"
    assert out == (FROZEN / f"{name}{suffix}").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ("demo", "--tol", "0.5", "--seed", "3", "--q", "2"),
    ("entropy", "--levels", "3", "--kind", "shannon", "--input", UNIT),
    ("entropy", "--format", "csv", "--kind", "shannon", "--input", UNIT),
    ("maxent", "--alpha", "2", "--input", DICE_SPEC),
    ("verify", "--q", "0.5"),
], ids=lambda argv: " ".join(arg for arg in argv if arg[0] != "{"))
def test_a_flag_the_verb_does_not_use_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in json.loads(err)["error"]["message"]


def test_each_verb_takes_the_flags_of_its_fields():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subparsers.choices) == set(FIELDS)
    for verb, parser in subparsers.choices.items():
        options = {s for action in parser._actions for s in action.option_strings}
        shared = {"-h", "--help", "--input", "--output"}
        if verb in ("approx", "demo"):
            shared.add("--format")
        flags = {field.flag for field in FIELDS[verb].values() if field.flag}
        assert options == shared | flags, verb


@pytest.mark.parametrize("kind", [[], ["--kind", "tsallis", "--q", "2"]])
def test_maxent_on_a_total_weight_that_overflows_exits_one(capsys, kind):
    spec = ('{"partition": {"cells": ["a", "b", "c"], "weights": [1e308, 1e308, 1e308]}, '
            '"constraints": [{"values": [0, 1, 2], "target": 0.7}]}')
    message = validation_message(capsys, "maxent", *kind, "--input", spec)
    assert message.startswith("partition.weights: the total weight inf overflows")


LIGHT_CELL = ("partition.weights: P_k/mu_k overflows on cell 0, whose weight 1e-310 is too light "
              "to carry its mass; rescale the weights")


@pytest.mark.parametrize("kind", [[], ["--kind", "tsallis", "--q", "2"], ["--kind", "tsallis", "--q", "0.5"]])
def test_maxent_on_cells_too_light_for_the_solution_exits_one(capsys, kind):
    # the density 1/(3e-310) overflows on every cell
    spec = ('{"partition": {"cells": ["a", "b", "c"], "weights": [1e-310, 1e-310, 1e-310]}, '
            '"constraints": [{"values": [0, 1, 2], "target": 1}]}')
    assert validation_message(capsys, "maxent", *kind, "--input", spec) == LIGHT_CELL


VECTOR_FAULTS = [
    (("entropy", "--kind", "shannon"), {"pmf": [0.5, 0.4]}, "pmf: must sum to 1 (got 0.9)"),
    (("entropy", "--kind", "measure"), {"pmf": [0.5, 0.4]}, "pmf: must sum to 1 (got 0.9)"),
    (("entropy", "--kind", "shannon"), {"pmf": [1.5, -0.5]},
     "pmf: entries must be finite and nonnegative"),
    (("entropy", "--kind", "shannon"), {"pmf": [0.5, 0.5], "partition": {"n": 3}},
     "pmf: length 2 does not match partition size 3"),
    (("entropy", "--kind", "shannon"),
     {"pmf": [0.5, 0.5], "partition": {"cells": ["a", "b"], "weights": [1, 0]}},
     "pmf: cell 1 carries mass 0.5 but zero reference weight"),
    (("entropy", "--kind", "shannon"),
     {"pmf": [0.5, 0.5], "partition": {"cells": ["a", "b"], "weights": [1e-310, 1]}}, LIGHT_CELL),
    (("entropy", "--kind", "shannon"), {"density": [0.5, 0.4]},
     "density: must integrate to 1 against the partition (got 0.9)"),
    (("entropy", "--kind", "shannon"), {"density": [0.5, 0.5], "partition": {"n": 3}},
     "density: length 2 does not match partition size 3"),
    (("divergence", "--kind", "kl"), {"p": [1.5, -0.5], "r": [0.5, 0.5]},
     "p: entries must be finite and nonnegative"),
    (("divergence", "--kind", "kl"), {"p": [0.5, 0.5], "r": [0.5, 0.4]},
     "r: must sum to 1 (got 0.9)"),
    (("divergence", "--kind", "renyi", "--alpha", "2"), {"p": [0.5, 0.5], "r": [0.5, 0.4, 0.1]},
     "r: length 3 does not match p length 2"),
    # these named the library's values, expr, level or weights
    (("approx", "--alpha", "2", "--levels", "2"), {"p": [1, 2, 3], "r": [1, 1, 1, 1]},
     "p: need a power-of-two number of base cells up to 2^24, got (3,)"),
    (("approx", "--alpha", "2", "--levels", "2"), {"p": [1, 1, 1, 1], "r": [0, 0, 0, 0]},
     "r: cannot renormalize zero total mass"),
    (("approx", "--alpha", "2", "--levels", "2"), {"p": {"expr": "1"}, "r": {"expr": "y"}},
     "r.expr: unknown name 'y'"),
    (("approx", "--alpha", "2", "--levels", "3"), {"p": [1, 1, 1, 1], "r": [1, 1, 1, 1]},
     "levels: 2^3 dyadic bins exceed the 4-cell base grid; rebuild the density with a larger "
     "base exponent"),
    (("entropy", "--kind", "shannon"),
     {"partition": {"cells": ["a", "b"], "weights": [-1, 2]}, "density": [0.5, 0.5]},
     "partition.weights: entries must be finite and nonnegative"),
    (("maxent",), {"partition": {"cells": ["a", "b"], "weights": [0, 0]},
                   "constraints": [{"values": [0, 1], "target": 0.5}]},
     "partition.weights: at least one cell must carry positive weight"),
]


@pytest.mark.parametrize("argv, spec, message", VECTOR_FAULTS,
                         ids=[" ".join(argv[::2]) + " " + message for argv, _, message in VECTOR_FAULTS])
def test_a_vector_fault_names_its_input_field(capsys, argv, spec, message):
    # the library's own names (masses, values, R) and its renormalize=True
    # advice are not the CLI's
    assert validation_message(capsys, *argv, "--input", json.dumps(spec)) == message


CONSTRAINT_FAULTS = [
    ({"partition": {"n": 2}, "constraints": [{"values": [0, 1], "target": 1}]},
     "constraints[0].target: 1.0 is not strictly inside the attainable range (0.0, 1.0) on the "
     "support; the maximizer would be a degenerate limit"),
    ({"partition": {"n": 2}, "constraints": [{"values": [0, 1], "target": 1.5}]},
     "constraints[0].target: 1.5 lies outside the attainable range [0.0, 1.0]"),
    ({"partition": {"n": 3}, "constraints": [{"values": [0, 1], "target": 0.5}]},
     "constraints: value lists have 2 entries but the partition has 3 cells"),
    ({"partition": {"n": 3}, "constraints": [{"values": [0, 1, 2], "target": 0.5},
                                             {"values": [0, 1, 2], "target": 1.5}]},
     "constraints: jointly infeasible; "),
]


@pytest.mark.parametrize("kind", [[], ["--kind", "tsallis", "--q", "2"]])
@pytest.mark.parametrize("spec, message", CONSTRAINT_FAULTS)
def test_a_constraint_fault_names_its_input_field(capsys, kind, spec, message):
    # the library names targets and functions, and printed np.float64(1.0)
    got = validation_message(capsys, "maxent", *kind, "--input", json.dumps(spec))
    assert got.startswith(message) and "np.float64" not in got


@pytest.mark.parametrize("kind", [[], ["--kind", "tsallis", "--q", "0.5"], ["--kind", "tsallis", "--q", "2"]])
@pytest.mark.parametrize("values, target", [([0, 1, 2], 0.7), ([0, 2, 4], 1.4), ([1, 2, 3], 1.7)])
def test_a_dependent_constraint_exits_one_under_its_field(capsys, kind, values, target):
    # each repeats [0, 1, 2] -> 0.7: the audit exited 2 with a stalled
    # re-solve, or 1 with "jointly infeasible" (q = 2, the duplicate)
    spec = {"partition": {"n": 3}, "constraints": [{"values": [0, 1, 2], "target": 0.7},
                                                   {"values": values, "target": target}]}
    message = validation_message(capsys, "maxent", *kind, "--input", json.dumps(spec))
    assert message.startswith("constraints[1].values: an affine combination")


def test_approx_reports_the_exponent_of_the_grid_it_built(capsys):
    # raw value arrays set the grid; the base_exponent field (default 20) is not read
    spec = '{"p": [1, 2, 3, 4], "r": [1, 1, 1, 1], "levels": [1, 2]}'
    code, out, err = run_cli(capsys, "approx", "--kind", "renyi", "--alpha", "2",
                             "--format", "json", "--input", spec)
    assert (code, err) == (0, "")
    assert json.loads(out)["base_exponent"] == 2


def test_shannon_entropy_of_a_density_whose_p_ln_p_overflows(capsys):
    # 5e306 ln 5e306 overflows; the 50-digit mpmath value of the sum on
    # these float inputs is -352.75366459402603023
    spec = '{"partition": {"cells": ["a", "b"], "weights": [1e-307, 1]}, "density": [5e306, 0.5]}'
    code, out, err = run_cli(capsys, "entropy", "--kind", "shannon", "--input", spec)
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == -352.75366459402603023


def maxent_run(capsys, spec, *flags):
    """(exit code, output or error payload) of one maxent run."""
    code, out, err = run_cli(capsys, "maxent", *flags, "--input", json.dumps(spec))
    return code, json.loads(out if code == 0 else err)


def gaussian_reference(half_width):
    """201 cells on [-L, L] weighted by the standard normal, mu_k = phi(x_k) dx,
    and the feature x with target 1: min mu is 4e-16 at L = 8."""
    x = [half_width * (k - 100) / 100 for k in range(201)]
    dx = half_width / 100
    weights = [math.exp(-v * v / 2.0) / math.sqrt(2.0 * math.pi) * dx for v in x]
    return {"partition": {"cells": [f"c{k}" for k in range(201)], "weights": weights},
            "constraints": [{"values": x, "target": 1.0}]}


@pytest.mark.parametrize("half_width", [7, 8])
def test_escort_audit_on_a_gaussian_reference(capsys, half_width):
    # at L = 8 a step of fd_step leaves the escort family; the audit shrinks it
    code, payload = maxent_run(capsys, gaussian_reference(half_width), "--kind", "tsallis",
                               "--q", "1.5")
    assert code == 0, payload
    thermo = payload["thermo_residuals"]
    assert all(math.isfinite(v) for v in [thermo["legendre_gap"], *thermo["log_z_gradient"],
                                          *thermo["entropy_sensitivity"]])


# the limits a solve or an audit can stop at, as the messages name them
LIMITS = r"after \d+ halvings|after \d+ iterations|^fd_step: "


@pytest.mark.parametrize("k", range(6, 11))
def test_escort_two_cell_sweep_solves_or_names_its_limit(capsys, k):
    # q = 2, values [0, 1], target 0.5, weights [10^-k, 1]: the solution lies
    # about 10^(-k/2) from the pole
    spec = {"partition": {"cells": ["a", "b"], "weights": [10.0**-k, 1.0]},
            "constraints": [{"values": [0, 1], "target": 0.5}]}
    code, payload = maxent_run(capsys, spec, "--kind", "tsallis", "--q", "2")
    if code == 0:
        thermo = payload["thermo_residuals"]
        assert all(math.isfinite(v) for v in [*thermo["log_z_gradient"],
                                              *thermo["entropy_sensitivity"]])
    else:
        assert code in (1, 2)
        assert re.search(LIMITS, payload["error"]["message"]), payload
