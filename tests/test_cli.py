import inspect
import json
import os
import subprocess
import sys
import time

import pytest

import quiverz
from quiverz import cli, verify
from quiverz.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_part_dual(capsys):
    code, out = run(capsys, "part", "dual", "5,3,3,1")
    assert code == 0
    assert out == "[4,3,3,1,1]"


def test_part_add(capsys):
    assert run(capsys, "part", "add", "2,1,1", "1") == (0, "[3,2]")
    assert run(capsys, "part", "add", "1", "3") == (0, "[2,1,1]")


def test_part_dom(capsys):
    assert run(capsys, "part", "dom", "3,2", "3,1,1") == (0, "true")
    assert run(capsys, "part", "dom", "3,3", "4,1,1") == (0, "false")


def test_part_nvec_and_young(capsys):
    assert run(capsys, "part", "nvec", "5,3,3,1") == (0, "[1,2,5,8,12]")
    code, out = run(capsys, "part", "young", "2,1")
    assert code == 0
    assert out == "[][]\n[]"


def test_dimvec_classify(capsys):
    code, payload = run_json(capsys, "dimvec", "classify", "1,2,5,8,12")
    assert code == 0
    assert payload == {"tag": "kraft_procesi", "eta": [5, 3, 3, 1]}
    code, payload = run_json(capsys, "dimvec", "classify", "1,4,5")
    assert payload == {"tag": "monotone_only"}


def test_dimvec_mu_lambda_slack(capsys):
    assert run(capsys, "dimvec", "mu", "1,4,5") == (0, "[3,1,1]")
    assert run(capsys, "dimvec", "lambda", "1,4,5") == (0, "[3,2]")
    assert run(capsys, "dimvec", "slack", "1,2") == (0, "[0]")
    assert run(capsys, "dimvec", "slack", "1,4,5") == (0, "[2,-2]")
    assert run(capsys, "dimvec", "obstruction", "1,4,5") == (0, '"reducible"')


def test_dimvec_verdict(capsys):
    code, payload = run_json(capsys, "--json", "dimvec", "verdict", "1,4,5")
    assert code == 0
    assert payload["verdict"] == "reducible"
    assert payload["lambda"] == [3, 2]
    assert payload["mu"] == [3, 1, 1]
    assert len(payload["witnesses"]) == 2


def test_domain_error_exit_code(capsys):
    code = main(["part", "dual", "1,2,3"])  # increasing: not a partition
    assert code == 2
    code = main(["dimvec", "mu", "2,2"])
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["part", "frobnicate", "1"])
    assert exc.value.code == 2


def test_verify_ab_step(capsys):
    code, payload = run_json(capsys, "--json", "verify", "ab-step", "--n", "1", "--a", "1")
    assert code == 0
    assert payload["pass"] is True
    assert payload["params"] == {"a": 1, "n": 1, "p": 2}


def test_verify_budget_exit_code(capsys):
    code = main(["--json", "verify", "ab-step", "--n", "3", "--a", "3", "--budget", "10"])
    assert code == 2


def test_verify_budget_refuses_huge_sizes_at_once(capsys):
    """The budget guard never forms p^(2n(n+a)): the refusal names the size
    as a power, and a size of 3^18000000 is refused as fast as a small one."""
    assert main(["--json", "verify", "ab-step", "--n", "200", "--a", "0", "--p", "3"]) == 2
    assert capsys.readouterr().err == "error: 3^80000 pairs exceed the budget of 10000000\n"
    start = time.perf_counter()
    assert main(["--json", "verify", "ab-step", "--n", "3000", "--a", "0", "--p", "3"]) == 2
    assert time.perf_counter() - start < 0.5
    assert "exceed the budget" in capsys.readouterr().err


@pytest.mark.parametrize("statement", ["theta-image", "all"])
def test_verify_sweep_refuses_huge_max_last_at_once(capsys, statement):
    """The swept vectors are subsets of 1..max_last: past 2^max_last >
    DEFAULT_BUDGET the sweep is refused before any vector is built, where
    --max-last 40 used to try to build 2^40 of them."""
    start = time.perf_counter()
    assert main(["--json", "verify", statement, "--max-last", "40"]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == "error: 2^40 subsets of 1..40 to sweep exceed the budget of 10000000\n"


# Small sizes for a run of each verify statement.
_SMALL = {
    "ab-step": ["--n", "1", "--a", "1"],
    "theta-image": ["--max-last", "3", "--trials", "1"],
    "stability": [],
    "reducible": [],
    "all": ["--max-last", "3", "--trials", "1"],
}


@pytest.mark.parametrize(
    "statement, driver, defaults", cli._VERIFY_STATEMENTS, ids=[row[0] for row in cli._VERIFY_STATEMENTS]
)
def test_verify_statement_table(capsys, statement, driver, defaults):
    """Each flag of a statement is a parameter of its driver, which a run at
    small sizes reaches: it exits 0 with a passing report."""
    params = inspect.signature(getattr(verify, driver)).parameters
    assert set(defaults) <= set(params)
    code, payload = run_json(capsys, "--json", "verify", statement, *_SMALL[statement])
    assert code == 0
    assert payload["pass"] is True


def test_verify_reducible(capsys):
    code, payload = run_json(capsys, "--json", "verify", "reducible", "--seed", "4")
    assert code == 0
    assert payload["pass"] is True


def test_verify_all_deterministic(capsys):
    args = ["--json", "verify", "all", "--seed", "9", "--max-last", "4", "--trials", "1"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    code3, out3 = run(capsys, *args, "--jobs", "4")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3


def test_serial_verify_imports_no_multiprocessing():
    """--jobs 1 runs in-process: a fresh interpreter never imports the pool,
    which keeps start-up short."""
    script = (
        "import sys\n"
        "from quiverz import cli\n"
        "code = cli.main(['--json', 'verify', 'all', '--max-last', '4', '--trials', '1', '--jobs', '1'])\n"
        "print(code, sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(quiverz.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_forked_workers_write_nothing():
    """With stdout and stderr piped, so block-buffered, `verify all --jobs 2`
    writes its output once, byte-identical to --jobs 1, in JSON and in human
    mode: a forked worker ends without flushing the caller's buffers.  A
    line the caller left in its stdout buffer before the workers fork is
    written once too."""
    src = os.path.dirname(os.path.dirname(quiverz.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    sizes = ["verify", "all", "--max-last", "4", "--trials", "1", "--jobs"]

    def run_cli(*argv):
        done = subprocess.run([sys.executable, "-m", "quiverz.cli", *argv], capture_output=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout, done.stderr

    for mode in (["--json"], []):
        one, two = run_cli(*mode, *sizes, "1"), run_cli(*mode, *sizes, "2")
        assert two == one
        assert one[0].count(b"\n") == 1
        assert one[1].count(b"PASS\n") == (0 if mode else 7)
    script = "from quiverz import cli\nprint('pending')\ncli.main(['--json', *%r])\n" % (sizes + ["2"],)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"pending\n" + run_cli("--json", *sizes, "1")[0]


def test_closed_pipe_exits_141():
    """A reader that closes stdout before the report is written, as
    `quiverz dimvec verdict 1,4,5 --json | head -c 10` may, ends the CLI
    with exit 141 and no traceback, not with exit 1, which means a
    counterexample."""
    src = os.path.dirname(os.path.dirname(quiverz.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "quiverz.cli", "dimvec", "verdict", "1,4,5", "--json"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 141
    assert done.stderr == b""


def test_verify_all_honours_sizes(capsys):
    """--max-last and --trials reach the suite's theta-image report; without
    them the suite keeps its own sizes."""
    for extra, max_last, trials in ((["--max-last", "4", "--trials", "1"], 4, 1), ([], 6, 2)):
        code, payload = run_json(capsys, "--json", "verify", "all", "--seed", "2", *extra)
        assert code == 0
        (theta,) = [r for r in payload["reports"] if r["statement"] == "theta-image"]
        assert theta["params"] == {"max_last": max_last, "p": 32003, "seed": 2, "trials": trials}


@pytest.mark.parametrize(
    "flag, value",
    [("--trials", "-1"), ("--budget", "-1"), ("--max-last", "-1"), ("--jobs", "0")],
)
def test_verify_rejects_out_of_range_sizes(capsys, flag, value):
    statement = "ab-step" if flag == "--budget" else "theta-image"  # a statement that reads the flag
    with pytest.raises(SystemExit) as exc:
        main(["--json", "verify", statement, flag, value])
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("statement", ["theta-image", "all"])
@pytest.mark.parametrize("value", ["1", "0"])
def test_verify_refuses_empty_sweep(capsys, statement, value):
    """--max-last below 2 sweeps no vector: exit 2 with argparse's message,
    where an empty sweep used to exit 0 as a pass."""
    with pytest.raises(SystemExit) as exc:
        main(["--json", "verify", statement, "--max-last", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"quiverz verify {statement}: error: argument --max-last: must be at least 2, got {value}"


def test_huge_modulus_exit_code(capsys):
    code = main(["--json", "dimvec", "verdict", "1,4,5", "--p", "1000000000000000003"])
    assert code == 2
    assert "below 2^31" in capsys.readouterr().err


def test_json_flag_silences_stderr(capsys):
    main(["--json", "verify", "reducible"])
    captured = capsys.readouterr()
    assert captured.err == ""
    main(["verify", "reducible"])
    captured = capsys.readouterr()
    assert "reducible" in captured.err


def test_verify_rejects_unread_flag(capsys):
    """A statement refuses a flag its driver would ignore."""
    with pytest.raises(SystemExit) as exc:
        main(["--json", "verify", "theta-image", "--budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


def test_verify_stability_reads_modulus(capsys):
    """stability runs over the given field: a composite modulus is refused,
    and F_3 makes the (1,2,3) enumeration exceed the default budget."""
    assert main(["--json", "verify", "stability", "--p", "4"]) == 2
    assert "must be prime" in capsys.readouterr().err
    assert main(["--json", "verify", "stability", "--p", "3"]) == 2
    assert "exceed the budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--json", "verify", "reducible"],
        ["verify", "reducible", "--json"],
        ["verify", "--json", "reducible"],
    ],
)
def test_json_flag_in_either_position(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["pass"] is True


def test_json_flag_after_part_and_dimvec(capsys):
    assert run(capsys, "part", "young", "2,1", "--json") == (0, '"[][]\\n[]"')
    code = main(["dimvec", "verdict", "1,4,5", "--json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["verdict"] == "reducible"
