import json
import os
import shlex
import signal
import subprocess
import sys
import time
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

from excodim import cli

SRC = Path(cli.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    return json.loads(files("excodim.data").joinpath("report_schema.json").read_text())


def test_bounds_json_report(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--r", "4", "--a", "1", "--degrees", "3,4,5,6",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema())
    values = {r["name"]: r["value"] for r in report["results"]}
    assert values["base_codim"] == 16
    assert values["stratum_b2"] == 27
    assert values["stratum_b3"] == 31
    assert values["stratum_b4"] == 25
    assert values["verdict"] == "UniqueMaxLinear"
    assert report["config"]["command"] == "bounds"


def test_text_and_json_agree(capsys):
    code, text_out, _ = run_cli(
        capsys, "bounds", "--r", "4", "--a", "1", "--degrees", "3,4,5,6",
    )
    assert code == 0
    code, json_out, _ = run_cli(
        capsys, "bounds", "--r", "4", "--a", "1", "--degrees", "3,4,5,6",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(json_out)
    for res in report["results"]:
        if isinstance(res["value"], (int, float)) and res["name"] != "gap":
            assert f"= {res['value']}" in text_out


def test_degrees_reordered_with_notice(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--r", "4", "--a", "1", "--degrees", "6,3,5,4",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert any("reordered" in w for w in report["warnings"])
    assert report["results"][0]["value"] == 16


def test_example_command(capsys):
    code, out, _ = run_cli(capsys, "example", "--format", "json")
    assert code == 0
    values = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert values["codim"] == 16
    assert values["chain_b4"] == [25, 51, 55, 35]
    assert values["chain_b3"] == [35, 44, 39, 61, 56, 55]
    assert values["second_largest_lower_bound"] == 25


def test_apps_lines(capsys):
    code, out, _ = run_cli(
        capsys, "apps", "lines", "--r", "5", "--d", "4", "--format", "json",
    )
    assert code == 0
    values = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert values["maximal_components"] == ["ContainsPlane", "EckardtPoint"]


def test_apps_singular_single(capsys):
    code, out, _ = run_cli(
        capsys, "apps", "singular", "--r", "3", "--ell", "5", "--format", "json",
    )
    assert code == 0
    values = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert values["holds"] is True
    assert values["margin[d*r - 2*r + 3]"] == 3
    assert values["margin[r + 2*d - 3]"] == 4


def test_apps_singular_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "apps", "singular", "--sweep", "--r-max", "3", "--ell-max", "6",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert {"r", "ell", "holds"} <= set(header)
    assert len(lines) == 1 + 2 * 4  # r in {2,3}, ell in {3..6}


def test_csv_rejected_for_non_sweep(capsys):
    code, _, err = run_cli(
        capsys, "bounds", "--r", "4", "--a", "1", "--degrees", "3,4,5,6",
        "--format", "csv",
    )
    assert code == 2
    assert "sweep" in err


@pytest.mark.parametrize("argv", [
    ("oracle", "excess", "--r", "3", "--degrees", "2,2,2", "--field", "2", "--trials", "20000"),
    ("selftest",),
], ids=["oracle-excess", "selftest"])
def test_csv_refused_before_any_work(capsys, monkeypatch, argv):
    from excodim import fforacle

    def no_work(*args, **kwargs):
        raise AssertionError("an experiment ran")

    monkeypatch.setattr(fforacle, "excess_experiment", no_work)
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert (code, out, err) == (2, "", "error: csv output is only available for sweep commands\n")


def test_oracle_excess(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "excess", "--r", "2", "--degrees", "1,1", "--a", "1",
        "--field", "2", "--mode", "exhaustive", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, load_schema())
    values = {r["name"]: r["value"] for r in report["results"]}
    assert values["hits"] == 22 and values["trials"] == 64
    assert values["predicted_codim"] == 2


def test_given_trials_mean_a_sampled_run_in_auto_mode(capsys):
    code, out, _ = run_cli(capsys, "oracle", "excess", "--r", "2", "--degrees", "1,1",
                           "--field", "3", "--trials", "5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    values = {r["name"]: r["value"] for r in report["results"]}
    assert (values["mode"], values["trials"], report["config"]["trials"]) == ("sampled", 5, 5)


@pytest.mark.parametrize("mode", [[], ["--mode", "sampled"]], ids=["auto", "sampled"])
def test_trials_over_budget_exit_3_before_the_first_draw(capsys, monkeypatch, mode):
    from excodim.fforacle import experiments

    def no_draw(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(experiments, "_chunk_rng", no_draw)
    code, out, err = run_cli(capsys, "oracle", "excess", "--r", "2", "--degrees", "1,1",
                             "--field", "2", *mode, "--trials", "99999999999999999999")
    assert (code, out) == (3, "")
    assert err.startswith("budget exhausted: 99999999999999999999 trials are over budget")


def test_oracle_singular(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "singular", "--r", "2", "--ell", "3", "--field", "2",
        "--mode", "exhaustive", "--format", "json",
    )
    assert code == 0
    values = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert values["trials"] == 1024
    assert values["predicted_codim"] == 5


def test_argument_errors_exit_2(capsys):
    code, _, _ = run_cli(capsys, "bounds", "--r", "4")
    assert code == 2
    code, _, err = run_cli(capsys, "oracle", "excess", "--r", "2", "--degrees", "1,1",
                           "--field", "6")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("exact", "--r", "3", "--degrees", "0,3"),
    ("oracle", "excess", "--r", "2", "--degrees", "0,1", "--mode", "exhaustive"),
    ("oracle", "excess", "--r", "2", "--degrees", "1,1", "--field", "abc"),
    ("oracle", "singular", "--r", "2", "--ell", "3", "--field", "2^x"),
    ("oracle", "excess", "--r", "2", "--degrees", "1,1", "--mode", "sampled",
     "--trials", "0"),
    ("oracle", "excess", "--r", "2", "--degrees", "1,1", "--mode", "sampled",
     "--trials", "-5"),
    ("oracle", "singular", "--r", "2", "--ell", "3", "--mode", "sampled",
     "--trials", "0"),
    ("oracle", "excess", "--r", "2", "--degrees", "1,1", "--field", "3", "--mode",
     "exhaustive", "--trials", "5"),
    ("oracle", "singular", "--r", "2", "--ell", "3", "--mode", "exhaustive",
     "--trials", "5"),
    ("oracle", "excess", "--r", "2", "--degrees", "1,1", "--threads", "2"),
    ("oracle", "singular", "--r", "2", "--ell", "3", "--threads", "2"),
    ("oracle", "excess", "--r", "4", "--degrees", "2,2", "--trials", "300", "--m-max", "9"),
    ("oracle", "excess", "--r", "2", "--degrees", "2,2", "--trials", "300", "--m-max", "0"),
    ("oracle", "excess", "--r", "2", "--degrees", "1,1", "--seed", "-1"),
    ("oracle", "excess", "--r", "2", "--degrees", "1,1", "--seed", str(2**63)),
    ("oracle", "excess", "--r", "2", "--degrees", "1,1", "--seed", str(2**64)),
    ("oracle", "singular", "--r", "3", "--ell", "3", "--seed", str(2**64)),
])
def test_bad_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    if argv[-2] in ("--threads", "--m-max"):
        # a removed flag is rejected by the argument parser
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err
    else:
        assert err.startswith("error: ")


@pytest.mark.parametrize("r", ["-3", "0"])
def test_slope_checks_r(capsys, r):
    code, out, err = run_cli(capsys, "slope", "--r", r, "--degrees", "3")
    assert (code, out, err) == (2, "", f"error: need r >= 1, got {r}\n")


@pytest.mark.parametrize("argv, message", [
    (("apps", "singular", "--sweep", "--r-min", "5", "--r-max", "2"), "r_min <= r_max, got 5 > 2"),
    (("apps", "singular", "--sweep", "--ell-min", "9", "--ell-max", "3"),
     "ell_min <= ell_max, got 9 > 3"),
    (("apps", "lines", "--sweep", "--r-min", "5", "--r-max", "2"), "r_min <= r_max, got 5 > 2"),
    (("apps", "lines", "--sweep", "--d-min", "9", "--d-max", "3"), "d_min <= d_max, got 9 > 3"),
])
def test_empty_sweep_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert (code, out, err) == (2, "", f"error: need {message}\n")


def test_one_point_sweep_runs(capsys):
    code, out, _ = run_cli(capsys, "apps", "lines", "--sweep", "--r-min", "4", "--r-max", "4",
                           "--d-min", "3", "--d-max", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("r,d,") and len(out.splitlines()) == 2


def test_sweep_over_budget_exits_3_before_any_row(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "apps", "lines", "--sweep", "--r-max", "2000",
                             "--d-max", "2000", "--format", "csv")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (f"budget exhausted: a sweep of 1999x1998 points is over the budget "
                   f"of {cli.MAX_SWEEP_ROWS} rows\n")


def test_default_sweeps_run_up_to_the_budget(capsys, monkeypatch):
    # the default sweeps have 56 (lines) and 7 x 18 = 126 (singular) rows
    monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 56)
    code, out, _ = run_cli(capsys, "apps", "lines", "--sweep", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 1 + 56
    code, out, err = run_cli(capsys, "apps", "singular", "--sweep", "--format", "csv")
    assert (code, out) == (3, "") and "a sweep of 7x18 points" in err


@pytest.mark.parametrize("argv, config", [
    (("bounds", "--r", "4", "--degrees", "6,3,5,4"),
     [("command", "bounds"), ("r", 4), ("a", 1), ("degrees", [6, 3, 5, 4])]),
    (("exact", "--r", "4", "--a", "2", "--degrees", "2,3,4,5"),
     [("command", "exact"), ("r", 4), ("a", 2), ("degrees", [2, 3, 4, 5])]),
    (("slope", "--r", "3", "--degrees", "3,4,5"),
     [("command", "slope"), ("r", 3), ("degrees", [3, 4, 5])]),
    (("example",), [("command", "example")]),
    (("apps", "singular", "--r", "3", "--ell", "5"),
     [("command", "apps singular"), ("r", 3), ("ell", 5), ("sweep", False), ("r_min", 2),
      ("r_max", 8), ("ell_min", 3), ("ell_max", 20)]),
    (("apps", "singular", "--sweep", "--r-max", "3", "--ell-min", "4", "--ell-max", "6"),
     [("command", "apps singular"), ("r", None), ("ell", None), ("sweep", True), ("r_min", 2),
      ("r_max", 3), ("ell_min", 4), ("ell_max", 6)]),
    (("apps", "lines", "--r", "5", "--d", "4"),
     [("command", "apps lines"), ("r", 5), ("d", 4), ("sweep", False), ("r_min", 2),
      ("r_max", 8), ("d_min", 3), ("d_max", 10)]),
    (("apps", "lines", "--sweep", "--d-min", "5"),
     [("command", "apps lines"), ("r", None), ("d", None), ("sweep", True), ("r_min", 2),
      ("r_max", 8), ("d_min", 5), ("d_max", 10)]),
    (("oracle", "excess", "--r", "2", "--degrees", "2,1", "--field", "3", "--mode", "sampled",
      "--trials", "50"),
     [("command", "oracle excess"), ("r", 2), ("a", 1), ("degrees", [2, 1]), ("field", "3"),
      ("mode", "sampled"), ("trials", 50), ("seed", 271828)]),
    (("oracle", "singular", "--r", "2", "--ell", "3", "--mode", "exhaustive", "--seed", "7"),
     [("command", "oracle singular"), ("r", 2), ("ell", 3), ("field", "2"),
      ("mode", "exhaustive"), ("trials", None), ("seed", 7)]),
    (("selftest",), [("command", "selftest")]),
], ids=["bounds", "exact", "slope", "example", "apps-singular", "apps-singular-sweep",
        "apps-lines", "apps-lines-sweep", "oracle-excess", "oracle-singular", "selftest"])
def test_config_echoes_the_arguments_in_declaration_order(capsys, argv, config):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert list(json.loads(out)["config"].items()) == [*config, ("format", "json")]


def test_r4_excess_warns_of_unchecked_samples(capsys):
    # the windows of a linear form and a quadric on P^4 persist within the
    # budget; those of three quadrics, a curve, go over it
    warnings = []
    for degrees in ("1,2", "2,2,2"):
        code, out, _ = run_cli(capsys, "oracle", "excess", "--r", "4", "--degrees", degrees,
                               "--a", "1", "--trials", "300", "--seed", "5", "--format", "json")
        assert code == 0
        warnings.append(json.loads(out)["warnings"])
    assert warnings == [
        [], ["50 crosscheck samples were not checked: their Hilbert window is over budget"]]


def test_budget_errors_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "excess", "--r", "3", "--degrees", "2,2", "--a", "1",
        "--field", "2", "--mode", "exhaustive",
    )
    assert code == 3
    assert "budget" in err.lower()


def test_singular_exhaustive_beyond_the_plane_exits_3(capsys):
    # characteristic 2, r >= 3 and ell >= 3 give at least 2^20 forms
    code, _, err = run_cli(
        capsys, "oracle", "singular", "--r", "3", "--ell", "3", "--mode", "exhaustive",
    )
    assert code == 3
    assert "over budget" in err


@pytest.mark.parametrize("r", ["8", "9"])
def test_section_test_over_budget_exits_3_before_building_maps(capsys, r):
    # at r = 8 the degree-50 section piece alone has 264385836 columns
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", "singular", "--r", r, "--ell", "8",
                             "--trials", "1")
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (3, "")
    assert err.startswith("budget exhausted: ")


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


def test_default_seed_is_fixed(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "oracle", "singular", "--r", "2", "--ell", "3", "--field", "2",
            "--mode", "sampled", "--trials", "2000", "--format", "json",
        )
        assert code == 0
        values = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        outs.append((values["hits"], values["trials"]))
    assert outs[0] == outs[1]


def fresh_env(**env):
    """The environment of a fresh interpreter with this excodim and no
    OPENBLAS_NUM_THREADS unless env sets it."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [base.get("PYTHONPATH")])])
    return {**base, **env}


def run_fresh(argv, **env):
    """Run argv under a fresh interpreter (``fresh_env``); the completed
    process."""
    return subprocess.run([sys.executable, *argv], env=fresh_env(**env), capture_output=True,
                          text=True, timeout=120)


def test_calculus_commands_do_not_import_numpy():
    code = (
        "import sys, excodim\n"
        "from excodim import cli\n"
        "loaded = ['numpy' in sys.modules]\n"
        "for argv in (['bounds', '--r', '4', '--degrees', '3,4,5,6'],\n"
        "             ['exact', '--r', '4', '--degrees', '2,3,4,5'],\n"
        "             ['slope', '--r', '4', '--degrees', '3,4,5,6'], ['example'],\n"
        "             ['apps', 'singular', '--r', '3', '--ell', '5'],\n"
        "             ['apps', 'lines', '--r', '5', '--d', '4']):\n"
        "    assert cli.run(argv) == 0\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "print(loaded)\n"
    )
    proc = run_fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([False] * 7)


def test_oracle_is_reachable_from_the_package():
    code = (
        "import excodim\n"
        "oracle = excodim.fforacle\n"
        "from excodim import fforacle\n"
        "from excodim import *\n"
        "print(oracle is fforacle, fforacle.gf(2).q, 'fforacle' in excodim.__all__)\n"
        "excodim.no_such_name\n"
    )
    proc = run_fresh(["-c", code])
    assert proc.stdout.splitlines() == ["True 2 True"]
    assert "AttributeError: module 'excodim' has no attribute 'no_such_name'" in proc.stderr


def test_every_exported_name_resolves():
    import excodim
    from excodim import fforacle

    for module in (excodim, fforacle):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []


PRINT_THREADS = (
    "threads = None\n"
    "if os.path.exists('/proc/self/status'):\n"
    "    with open('/proc/self/status') as f:\n"
    "        threads = next(int(line.split()[1]) for line in f if line.startswith('Threads:'))\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), threads)\n"
)
THREADS = (
    "import os, sys\n"
    "from excodim import cli\n"
    "assert cli.run(sys.argv[1:]) == 0\n"
) + PRINT_THREADS


@pytest.mark.parametrize("argv", [
    ("oracle", "excess", "--r", "2", "--degrees", "1,1", "--field", "3"),
    ("oracle", "singular", "--r", "3", "--ell", "3", "--trials", "40"),
    ("selftest",),
])
def test_oracle_commands_run_openblas_on_one_thread(argv):
    proc = run_fresh(["-c", THREADS, *argv])
    assert proc.returncode == 0, proc.stderr
    blas, threads = proc.stdout.splitlines()[-1].split()
    assert blas == "1"
    if threads == "None":
        pytest.skip("no /proc to count threads in")
    assert threads == "1"


def test_user_openblas_setting_wins():
    proc = run_fresh(["-c", THREADS, "oracle", "singular", "--r", "3", "--ell", "3",
                      "--trials", "40"], OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split()[0] == "2"


# the oracle's submodules, each after those it imports
SUBMODULES = ("fields", "linalg", "polynomials", "hilbert", "points", "experiments")


def test_fields_alone_loads_no_other_oracle_submodule():
    code = (
        "import sys\n"
        "import excodim.fforacle.fields\n"
        f"print([m for m in {SUBMODULES[1:]!r} if 'excodim.fforacle.' + m in sys.modules])\n"
    )
    proc = run_fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


def test_star_import_and_submodules_resolve():
    # each submodule is first reached through the package's attribute
    code = (
        "import sys\n"
        "import excodim.fforacle as oracle\n"
        f"for m in {SUBMODULES!r}:\n"
        "    assert 'excodim.fforacle.' + m not in sys.modules, m\n"
        "    assert getattr(oracle, m) is sys.modules['excodim.fforacle.' + m], m\n"
        "from excodim.fforacle import *\n"
        "missing = [n for n in oracle.__all__ if n not in globals()]\n"
        "assert oracle.gf is oracle.fields.gf\n"
        "assert oracle.excess_experiment is oracle.experiments.excess_experiment\n"
        f"assert {{*oracle.__all__, *{SUBMODULES!r}}} <= set(dir(oracle))\n"
        "print(missing, len(oracle.__all__))\n"
        "oracle.no_such_name\n"
    )
    proc = run_fresh(["-c", code])
    assert proc.stdout.splitlines() == ["[] 22"], proc.stderr
    assert ("AttributeError: module 'excodim.fforacle' has no attribute 'no_such_name'"
            in proc.stderr)


BLAS_AT_IMPORT = "import os\nimport excodim.fforacle.fields\n" + PRINT_THREADS


def test_importing_the_oracle_runs_openblas_on_one_thread():
    proc = run_fresh(["-c", BLAS_AT_IMPORT])
    assert proc.returncode == 0, proc.stderr
    blas, threads = proc.stdout.splitlines()[-1].split()
    assert blas == "1"
    if threads == "None":
        pytest.skip("no /proc to count threads in")
    assert threads == "1"


def test_user_openblas_setting_wins_on_import():
    proc = run_fresh(["-c", BLAS_AT_IMPORT], OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split()[0] == "2"


@pytest.mark.parametrize("argv, hits", [
    (("oracle", "excess", "--r", "2", "--degrees", "1,1", "--a", "1", "--field", "7",
      "--mode", "exhaustive"), 2737),
    (("oracle", "excess", "--r", "2", "--degrees", "2,2", "--a", "1", "--field", "4",
      "--mode", "sampled", "--trials", "200"), 3),
    (("oracle", "singular", "--r", "3", "--ell", "3", "--field", "2", "--mode", "sampled",
      "--trials", "40"), 0),
], ids=["linear-exhaustive", "plane-gf4", "space-singular"])
def test_benchmark_commands_run_with_a_seed(argv, hits):
    # with --seed the command's first use of the oracle is the fields submodule
    proc = run_fresh(["-m", "excodim.cli", *argv, "--format", "json", "--seed", "271828"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    jsonschema.validate(report, load_schema())
    values = {r["name"]: r["value"] for r in report["results"]}
    assert values["hits"] == hits


def test_module_entry_point_runs_the_oracle():
    # "python -m excodim.cli" imports the package first, as the benchmark does
    proc = run_fresh(["-m", "excodim.cli", "oracle", "singular", "--r", "3", "--ell", "3",
                      "--trials", "40", "--format", "json"])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    jsonschema.validate(report, load_schema())
    values = {r["name"]: r["value"] for r in report["results"]}
    assert (values["trials"], values["hits"], values["predicted_codim"]) == (40, 0, 6)
    assert report["config"]["seed"] == 271828


@pytest.mark.parametrize("argv, code, err", [
    (("oracle", "excess", "--r", "2", "--degrees", "1,1", "--field", "7", "--mode",
      "exhaustive", "--format", "json"), 0, ""),
    (("oracle", "excess", "--r", "2", "--degrees", "1,1", "--field", "6"), 2, "error: "),
    (("oracle", "excess", "--r", "2", "--degrees", "1,1", "--a", "1", "--bogus"), 2,
     "unrecognized arguments: --bogus"),
    (("oracle", "excess", "--r", "2", "--degrees", "2,2", "--field", "3", "--mode",
      "exhaustive"), 3, "budget exhausted: "),
], ids=["ok", "bad-field", "bad-flag", "budget"])
def test_module_entry_point_exit_codes(argv, code, err):
    # main() exits after run(): the exit code and the piped report survive
    proc = run_fresh(["-m", "excodim.cli", *argv])
    assert proc.returncode == code, proc.stderr
    assert err in proc.stderr
    if code:
        assert proc.stdout == ""
        return
    report = json.loads(proc.stdout)
    jsonschema.validate(report, load_schema())
    values = {r["name"]: r["value"] for r in report["results"]}
    assert (values["trials"], values["hits"]) == (7**6, 2737)


def test_closed_stdout_ends_the_run_without_a_traceback():
    # about 230 KB of CSV, several times what a pipe holds, so the writer
    # meets the closed end
    argv = ["-m", "excodim.cli", "apps", "lines", "--sweep", "--r-max", "100", "--d-max", "100",
            "--format", "csv"]
    proc = subprocess.Popen([sys.executable, *argv], env=fresh_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "r,d,maximal_components,universal_gap\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (141, -signal.SIGPIPE)
    assert err == ""


GOLDEN_REPORTS = sorted((Path(__file__).parent / "data").glob("cli_*.json"))


@pytest.mark.parametrize("path", GOLDEN_REPORTS, ids=lambda path: path.stem)
def test_report_matches_its_golden_file(capsys, path):
    # each file holds an argv, its exit code and its JSON report minus the
    # run time; every other value must come out the same
    golden = json.loads(path.read_text())
    code, out, _ = run_cli(capsys, *golden["argv"])
    report = json.loads(out)
    del report["runtime_ms"]
    assert (code, report) == (golden["exit_code"], golden["report"])


BENCH_REPORTS = [path for path in GOLDEN_REPORTS if path.stem.startswith("cli_bench_")]


@pytest.mark.parametrize("path", BENCH_REPORTS, ids=lambda path: path.stem)
def test_benchmark_tracer_reproduces_the_golden_report(path):
    # the benchmark's per-layer harness runs the workload argv in process,
    # with its spans wrapped around the program's entry points
    golden = json.loads(path.read_text())
    proc = run_fresh([str(SRC.parent / "bench" / "tracer.py"), *golden["argv"]])
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    report = json.loads(traced["stdout"])
    del report["runtime_ms"]
    assert (traced["exit"], report) == (0, golden["report"])


@pytest.mark.parametrize("argv, message", [
    (("singular", "--r", "8", "--ell", "8"),
     "degree-7 restriction map needs a 6435x3432 matrix"),
    (("excess", "--r", "9", "--degrees", "6,6,6,6", "--trials", "2000"),
     "degree-21 piece needs a 3264x2024 matrix"),
    # s = r: the sections are points, so each restriction map is one column;
    # the index tables substitute builds on the way are what is over budget
    (("excess", "--r", "3", "--degrees", "200", "--trials", "1"),
     "degree-200 substitution table stack needs a 68685049x4 matrix"),
])
def test_section_over_budget_exits_3_before_the_first_draw(capsys, monkeypatch, argv, message):
    from excodim.fforacle import experiments

    def no_draw(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(experiments, "_chunk_rng", no_draw)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", *argv)
    # refused at once, before anything over the budget is built
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", f"budget exhausted: {message}, over the budget\n")


def test_section_field_over_the_table_budget_exits_3_and_linear_runs_do_not(capsys):
    # a nonlinear run over GF(49) needs the section field GF(7^4); a linear
    # run is ranked in the base field and needs none
    code, out, err = run_cli(capsys, "oracle", "excess", "--r", "2", "--degrees", "2,2",
                             "--field", "49", "--trials", "10")
    assert (code, out, err) == (
        3, "", "budget exhausted: GF(7^4) exceeds the table budget (q=2401 > 1024)\n")
    code, _, _ = run_cli(capsys, "oracle", "excess", "--r", "2", "--degrees", "1,1",
                         "--field", "49", "--mode", "sampled", "--trials", "2000")
    assert code == 0


def readme_commands():
    """The ``excodim`` lines of the README's command-line block, as argvs."""
    text = (SRC.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("excodim ")]


def test_readme_commands_exit_0(capsys):
    commands = readme_commands()
    assert len(commands) == 10
    for argv in commands:
        assert run_cli(capsys, *argv)[0] == 0, argv


@pytest.mark.parametrize("argv", [
    "exact --r 1000 --degrees 1000",
    "bounds --r 200 --degrees 200,200",
    "oracle excess --r 100 --degrees 50",
    "exact --r 20000 --degrees 20000",  # a value past Python's 4300-digit str limit
])
def test_oversized_values_are_a_budget_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    assert line.startswith("budget exhausted: a ") and "-bit value" in line and len(line) < 200
