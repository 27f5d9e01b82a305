"""Command line surface: exit codes, JSON lines output, flag plumbing."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from ppavlab.checks import CHECKS
from ppavlab.cli import (
    FACTOR_LIMIT,
    GMAX_LIMIT,
    YDIM_LIMIT,
    _build_parser,
    main,
)


def run_lines(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


# -- exit codes ------------------------------------------------------------------


def test_passing_check_exits_zero(capsys):
    code, lines = run_lines(capsys, ["run", "--check", "theta-principal",
                                     "--gmax", "3"])
    assert code == 0
    assert len(lines) == 1
    assert lines[0]["check_id"] == "theta-principal"
    assert lines[0]["status"] == "pass"


def test_failing_check_exits_one(capsys):
    code, lines = run_lines(capsys, ["run", "--check", "kernel-action"])
    assert code == 1
    assert lines[0]["status"] == "fail"
    assert lines[0]["witnesses"]["c"] is True


def test_error_status_exits_one(capsys):
    # two divisors of order 2 do not fit on a one-dimensional Y
    code, lines = run_lines(capsys, ["run", "--check", "standard-build",
                                     "--factors", "1,1", "--ydim", "1"])
    assert code == 1
    assert lines[0]["status"] == "error"


def test_unknown_check_exits_two(capsys):
    code = main(["run", "--check", "nope"])
    captured = capsys.readouterr()
    assert code == 2
    assert "nope" in captured.err
    assert captured.out == ""


def test_bad_factors_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--factors", "x,y"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value", [
    ("--gmax", "0"), ("--gmax", "-3"), ("--ydim", "0"), ("--ydim", "-1"),
    ("--factors", "1,0"), ("--factors", "-2"), ("--gmax", "two"),
])
def test_non_positive_sizes_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--check", "theta-principal", f"{flag}={value}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert flag in captured.err
    assert captured.out == ""


def test_ydim_without_factors_usage_error(capsys):
    # the default grid sets its own Y dimensions, so a lone --ydim would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["run", "--check", "standard-build", "--ydim", "5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "--ydim" in captured.err
    assert captured.out == ""


EIGHT_ONES = ",".join(["1"] * 8)  # prod(g + 1) = 256, the product limit


@pytest.mark.parametrize("flag, value, parsed", [
    ("--gmax", str(GMAX_LIMIT), GMAX_LIMIT),
    ("--ydim", str(YDIM_LIMIT), YDIM_LIMIT),
    ("--factors", str(FACTOR_LIMIT), (FACTOR_LIMIT,)),
    ("--factors", EIGHT_ONES, (1,) * 8),
], ids=["gmax", "ydim", "factor", "factor-product"])
def test_sizes_at_limit_parse(flag, value, parsed):
    # parsed only: running the checks at the limit takes seconds
    args = _build_parser().parse_args(["run", f"{flag}={value}"])
    assert getattr(args, flag[2:]) == parsed


@pytest.mark.parametrize("flag, value", [
    ("--gmax", str(GMAX_LIMIT + 1)),
    ("--ydim", str(YDIM_LIMIT + 1)),
    ("--factors", str(FACTOR_LIMIT + 1)),
    ("--factors", f"1,{FACTOR_LIMIT + 1}"),
    ("--factors", EIGHT_ONES + ",1"),
], ids=["gmax", "ydim", "factor", "second-factor", "factor-product"])
def test_sizes_over_limit_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--check", "theta-principal", f"{flag}={value}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["0", "-1"])
def test_desk_script_rejects_non_positive_gmax(value):
    # the desk script shares the command's --gmax parsing, so a size below 1
    # is a usage error before any check runs
    root = pathlib.Path(__file__).resolve().parent.parent
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, str(root / "scripts" / "run_all_checks.py"),
                           f"--gmax={value}"], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 2
    assert "--gmax" in done.stderr
    assert done.stdout == ""


def test_desk_script_takes_the_command_options(capsys):
    # the script used to declare only --gmax and --seed; --check was an
    # unrecognized argument (exit 2)
    root = pathlib.Path(__file__).resolve().parent.parent
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    script = str(root / "scripts" / "run_all_checks.py")
    done = subprocess.run([sys.executable, script, "--check", "theta-principal"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    row, *rest = done.stdout.splitlines()
    check_id, status, _elapsed, unit = row.split()
    assert (check_id, status, unit) == ("theta-principal", "pass", "ms")
    assert rest == ["", "1/1 checks passed"]
    listed = subprocess.run([sys.executable, script, "--list"],
                            capture_output=True, text=True, env=env, timeout=120)
    assert main(["run", "--list"]) == listed.returncode == 0
    assert listed.stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["3", "--height", "-1"], ["3", "--height", "0"], ["3", "--height", "6"],
    ["1"], ["0"], ["5"],
], ids=["height-negative", "height-zero", "height-six", "n-one", "n-zero", "n-five"])
def test_scan_script_rejects_sizes_out_of_range(argv):
    # n is 2..4 and --height 1..5; outside them the script used to print an
    # empty "no principal restricted type" table, or a budget refusal
    root = pathlib.Path(__file__).resolve().parent.parent
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, str(root / "scripts" / "scan_subtori.py"), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert "invalid choice" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("script, argv, last", [
    ("run_all_checks.py", ["--gmax", "2"], "checks passed"),
    ("scan_subtori.py", ["2", "--height", "1"], "no principal restricted type"),
], ids=["run-all-checks", "scan-subtori"])
def test_scripts_run_from_a_fresh_checkout(script, argv, last):
    # README presents both scripts as runnable from the checkout, with no
    # install and no PYTHONPATH
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(root / "scripts" / script), *argv],
                          capture_output=True, text=True, env=env, cwd=root.parent,
                          timeout=120)
    assert done.stderr == ""
    assert done.stdout.splitlines()[-1].endswith(last)


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# -- output shape ------------------------------------------------------------------


def test_json_lines_schema(capsys):
    _, lines = run_lines(capsys, ["run", "--check", "example-b-orders"])
    assert set(lines[0]) == {"check_id", "status", "witnesses", "elapsed_ms"}


def test_multiple_checks_in_registry_order(capsys):
    _, lines = run_lines(capsys, ["run", "--check", "example-b-orders",
                                  "--check", "theta-principal", "--gmax", "2"])
    assert [l["check_id"] for l in lines] == ["theta-principal",
                                              "example-b-orders"]


def test_list_prints_registry(capsys):
    code = main(["run", "--list"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert [row[0] for row in rows] == list(CHECKS)
    assert all(len(row) == 2 and row[1].strip() for row in rows)


def test_json_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "results.jsonl"
    code, lines = run_lines(capsys, ["run", "--check", "example-c-order",
                                     "--json", str(path)])
    assert code == 0
    on_disk = [json.loads(line) for line in path.read_text().splitlines()]
    assert on_disk == lines


def test_unwritable_json_path_usage_error(tmp_path, capsys):
    # the file is opened before any check runs; a path in a missing directory
    # used to fail with a FileNotFoundError traceback after every check had printed
    path = tmp_path / "missing" / "results.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--check", "theta-principal", "--json", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: ppav-lab")
    assert error == f"ppav-lab: error: --json: cannot write {path}: No such file or directory"
    assert not path.parent.exists()


def test_unknown_check_leaves_json_file_untouched(tmp_path, capsys):
    # the ids are refused before the --json file is opened for writing
    path = tmp_path / "results.jsonl"
    path.write_text("kept\n")
    assert main(["run", "--check", "nope", "--json", str(path)]) == 2
    assert capsys.readouterr().out == ""
    assert path.read_text() == "kept\n"


def test_seed_flag_reaches_check(capsys):
    _, lines = run_lines(capsys, ["run", "--check", "box-kernel-product",
                                  "--seed", "3"])
    assert lines[0]["witnesses"]["seed"] == 3
