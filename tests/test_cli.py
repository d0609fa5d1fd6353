import concurrent.futures
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tautint
from tautint import cli
from tautint.cli import DIM_HARD_CAP, GRAPH_DIM_CAP, WEIGHTING_CAP, main
from tautint.polys import TautPolynomial
from tautint.psi import stable_types


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_chi_values(capsys):
    code, out = run_cli(["chi", "1", "1"], capsys)
    assert code == 0 and out.strip() == "-1/12"
    code, out = run_cli(["chi", "0", "3"], capsys)
    assert code == 0 and out.strip() == "1"
    code, out = run_cli(["chi", "2", "1", "--route", "omega"], capsys)
    assert code == 0 and out.strip() == "1/120"


def test_chi_json_format(capsys):
    code, out = run_cli(["chi", "1", "2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["value"] == "1/12"


def test_mv_and_hodge_and_omega(capsys):
    code, out = run_cli(["mv", "1", "1"], capsys)
    assert code == 0 and out.strip() == "1/12"
    code, out = run_cli(["hodge", "1", "1", "1", "0"], capsys)
    assert code == 0 and out.strip() == "1/24"
    code, out = run_cli(["omega", "1", "1", "1", "--", "-1", "0"], capsys)
    assert code == 0 and out.strip() == "-1/12"
    # argparse before Python 3.13 takes "-1,1,1,-3" or "-1/2" for an unknown
    # option; both are values here, as after `--` or in "-x=-1/2"
    code, out = run_cli(["omega", "0", "4", "2", "-1", "-1,1,1,-3"], capsys)
    assert code == 0 and out == "1\n"
    code, out = run_cli(["omega", "0", "4", "3", "0", "1,1,1,-3", "-x", "-1/2", "--route", "graph-raw"], capsys)
    assert code == 0 and out == "-1/6\n"
    code, out = run_cli(["omega", "1", "2", "2", "1", "0,2", "--test-class", "k1"], capsys)
    assert code == 0 and out.strip() == "1/48"


def test_hodge_and_omega_honour_format(capsys):
    # one (g, n, value, route) cell, as chi and mv print it; the route column
    # is "hodge" for hodge and the --route value for omega
    code, out = run_cli(["hodge", "2", "1", "2", "2", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"g": "2", "n": "1", "value": "7/5760", "route": "hodge"}
    args = ["omega", "1", "2", "2", "1", "0,2", "--test-class", "k1", "--route", "graph"]
    code, out = run_cli(args + ["--format", "csv"], capsys)
    assert code == 0 and out == "g,n,value,route\n1,2,1/48,graph\n"
    code, out = run_cli(["omega", "1", "1", "1", "--format", "json", "--", "-1", "0"], capsys)
    assert code == 0 and json.loads(out)["route"] == "auto"
    code, out = run_cli(["hodge", "2", "1", "2", "2", "--format", "text"], capsys)
    assert code == 0 and out == "7/5760\n"


def test_usage_errors(capsys):
    code, _ = run_cli(["chi", "0", "2"], capsys)
    assert code == 2
    code, _ = run_cli(["omega", "1", "1", "2", "0", "1"], capsys)
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["chi"])  # missing arguments
    assert exc.value.code == 2


def test_verify_small_subset(capsys):
    # the "small" grid is exercised in the acceptance suite; here just check
    # the output shape on the tiniest grid via the library-level runner
    from tautint.checks import CheckGrid, iter_suite
    from fractions import Fraction as F

    reports = list(iter_suite(CheckGrid(max_dim=0, max_r=1, s_values=(0,), x_values=(F(1),))))
    assert reports and all(r.passed for r in reports)
    line = reports[0].to_json()
    assert json.loads(line)["pass"] is True


def test_table_deterministic_and_parallel(capsys):
    code, out1 = run_cli(["table", "--dimmax", "2"], capsys)
    assert code == 0
    code, out2 = run_cli(["table", "--dimmax", "2"], capsys)
    assert out1 == out2
    code, out8 = run_cli(["table", "--dimmax", "2", "--jobs", "2"], capsys)
    assert out1 == out8
    assert out1.splitlines()[0] == "g,n,value,route"


def test_table_jobs_capped_at_cell_count(monkeypatch, capsys):
    # a fake pool that records its size and maps serially, so no worker starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, out = run_cli(["table", "--dimmax", "1", "--jobs", "100000"], capsys)
    assert code == 0
    assert sizes == [len(stable_types(1))]
    assert out == run_cli(["table", "--dimmax", "1"], capsys)[1]


def test_cache_flag_roundtrip(tmp_path, capsys):
    path = tmp_path / "psi.txt"
    code, out1 = run_cli(["chi", "1", "2", "--cache", str(path)], capsys)
    assert code == 0 and path.exists()
    code, out2 = run_cli(["chi", "1", "2", "--cache", str(path)], capsys)
    assert out1 == out2


def test_decimal_warns(capsys):
    code = main(["chi", "1", "1", "--decimal", "6"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert captured.out.strip() == "-0.0833333"


def test_table_decimal_renders_floats(capsys):
    _, exact = run_cli(["table", "--dimmax", "1"], capsys)
    code = main(["table", "--dimmax", "1", "--decimal", "3"])
    captured = capsys.readouterr()
    assert code == 0 and "warning" in captured.err
    want = [exact.splitlines()[0]]
    for row in exact.splitlines()[1:]:
        g, n, value, route = row.split(",")
        want.append(f"{g},{n},{float(Fraction(value)):.3g},{route}")
    assert captured.out.splitlines() == want
    assert "-0.0833" in captured.out


def test_table_huge_gmax_stops_at_the_dimension_bound(capsys):
    # 3g-3+n <= dimmax bounds the genus, so a huge --gmax costs nothing
    args = ["-m", "tautint", "table", "--gmax", "1000000000000", "--dimmax", "1"]
    proc = run_python(args, timeout=30)
    code, out = run_cli(["table", "--gmax", "1", "--dimmax", "1"], capsys)
    assert proc.returncode == code == 0 and proc.stdout == out, proc.stderr


def test_closed_pipe_exits_without_traceback():
    # `tautint verify | head -1`: the reader leaves after one line
    env = dict(os.environ, PYTHONPATH=str(Path(tautint.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tautint", "verify"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert json.loads(first)["pass"] is True
    assert proc.returncode == 1 and "Traceback" not in err, err


def test_import_loads_neither_json_nor_logging():
    # both are imported where they are used (a report's to_json, a corrupted
    # psi cache line), so a bare `import tautint` starts without them; -S
    # keeps site from importing anything on its own
    env = dict(os.environ, PYTHONPATH=str(Path(tautint.__file__).parents[1]))
    code = "import tautint, sys; print(sorted({'json', 'logging'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stdout + proc.stderr


NOT_AT_START = ("dataclasses", "inspect", "json", "logging", "concurrent.futures", "multiprocessing")


@pytest.mark.parametrize(
    "module,absent", [("tautint", NOT_AT_START + ("typing", "pathlib")), ("tautint.cli", NOT_AT_START)]
)
def test_import_loads_only_what_runs(module, absent):
    # the records are namedtuples, and pathlib, json and the process pool are
    # imported where they are used, so starting the package or the CLI loads
    # none of these; -S keeps site from importing anything on its own
    env = dict(os.environ, PYTHONPATH=str(Path(tautint.__file__).parents[1]))
    code = f"import {module}, sys; print(sorted(set({absent!r}) & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stdout + proc.stderr


def test_unwritable_cache_warns(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "psi.txt"
    code = main(["chi", "1", "1", "--cache", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip() == "-1/12"
    assert captured.err.count("\n") == 1 and "warning" in captured.err
    assert str(path) in captured.err


def test_unreadable_cache_is_a_usage_error(tmp_path, capsys):
    # a directory cannot be read as a cache file; a missing file is tolerated
    code = main(["chi", "1", "1", "--cache", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert str(tmp_path) in captured.err
    assert list(tmp_path.iterdir()) == []


def test_table_dimmax_capped(capsys):
    # rejected before any work, so this returns at once
    code = main(["table", "--dimmax", str(GRAPH_DIM_CAP + 1)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and str(GRAPH_DIM_CAP) in captured.err


def run_usage(args, capsys):
    """Exit code and stderr of a call that may stop in the argument parser."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["hodge", "0", "2", "0"],  # unstable
        ["omega", "1", "1", "0", "0", "0"],  # r < 1
        ["omega", "1", "1", "1", "0", "0", "-x", "abc"],
        ["omega", "1", "1", "1", "0", "0", "-x", "1/0"],
        ["omega", "1", "1", "1", "0", "0", "--test-class", "q1"],
        ["omega", "1", "1", "1", "0", "0", "--test-class", "psi2"],  # only one point
        ["omega", "1", "1", "2", "0", "0", "--route", "closed"],  # closed form is r = 1 only
        ["hodge", "1", "1", "1", "-1"],  # negative psi exponent
        ["hodge", "1", "1", "-1"],  # negative lambda index
        ["hodge", "1", "1", "1.5"],  # non-integer lambda index
        ["chi", "-1", "5"],  # negative genus
        ["table", "--dimmax", "-1"],
        ["table", "--gmax", "-1"],
        ["table", "--jobs", "0"],
        ["table", "--jobs", "-2"],
        ["mv", "0", "3", "--with-normalization"],  # 4g-4+n < 0: no constant
        ["verify", "--decimal", "3"],  # verify prints exact JSON reports only
        ["verify", "--format", "json"],
        ["omega", "0", "4", "2", "-1", "-1,1,1,-3", "-y"],  # unknown option beside negative values
    ],
)
def test_bad_input_is_a_usage_error(args, capsys):
    code, err = run_usage(args, capsys)
    assert code == 2
    assert "Traceback" not in err
    assert err.count("error:") == 1


def test_inadmissible_omega_spec_error_line(capsys):
    # sum(a) = 6 is not (2g-2+n)s = 2 mod 3; the line names r, s and a as
    # plain integers, not through the repr of the spec with its Fraction x
    code, err = run_usage(["omega", "0", "4", "3", "1", "1,1,1,3"], capsys)
    assert code == 2
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert "Fraction(" not in err and "Traceback" not in err
    assert "g=0, n=4, r=3, s=1, a=(1, 1, 1, 3)" in err


@pytest.mark.parametrize(
    "args",
    [
        ["chi", "5", "1", "--route", "omega"],  # dimension 13
        ["mv", "4", "4"],  # 13
        ["hodge", "5", "1", "1"],  # 13
        ["omega", "3", "5", "1", "0", "0,0,0,0,0"],  # 11
    ],
)
def test_dimension_cap_applies_to_every_subcommand(args, capsys):
    # rejected before any work, so these return at once; each lies just
    # above its subcommand's cap
    cap = GRAPH_DIM_CAP if args[0] == "omega" else DIM_HARD_CAP
    assert 3 * int(args[1]) - 3 + int(args[2]) == cap + 1
    code, err = run_usage(args, capsys)
    assert code == 2
    assert err.count("\n") == 1 and f"cap of {cap}" in err


def test_weighting_cap_refuses_huge_r_before_any_work(capsys):
    # the graph sum would build r^g weightings per stable graph; at g = 0
    # there is one per graph, so the same r still gives a value
    r = str(10**400)
    code, err = run_usage(["omega", "1", "1", r, "0", "0"], capsys)
    assert code == 2 and "Traceback" not in err
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert f"cap of {WEIGHTING_CAP}" in err
    code, out = run_cli(["omega", "0", "3", r, "0", "0,0,0"], capsys)
    assert code == 0 and out.strip() == f"1/{r}"


def test_dimension_cap_admits_its_own_dimension(capsys):
    # dimension 12 runs for chi and hodge (both answers are immediate)
    for args, want in ((["chi", "5", "0"], "1/1056"), (["hodge", "5", "0", "1"], "0")):
        code, out = run_cli(args, capsys)
        assert code == 0 and out.strip() == want


# -- every subcommand on drawn tokens: exit 0, 1 or 2 and never a traceback ------
# Stable draws have dimension <= 3 or lie above every cap (dimension >= 13),
# so no draw runs long.

VALID = [(str(g), str(n)) for g, n in stable_types(3)]
UNSTABLE = [("0", "0"), ("0", "1"), ("0", "2"), ("1", "0")]
OVER_CAP = [("5", "1"), ("2", "10"), ("0", "16"), ("12", "0")]
NEGATIVE = [("-1", "5"), ("0", "-3"), ("-2", "-2")]
NON_NUMERIC = ["abc", "1.5", "x1", "", "1/2"]


def _tokens(valid, bad_numbers):
    return st.one_of(st.sampled_from(valid), st.sampled_from(bad_numbers + NON_NUMERIC))


spaces = st.one_of(
    st.sampled_from(VALID),
    st.sampled_from(VALID),
    st.sampled_from(UNSTABLE),
    st.sampled_from(OVER_CAP),
    st.sampled_from(NEGATIVE),
    st.tuples(st.sampled_from(NON_NUMERIC), st.sampled_from(["1", "2"])),
).map(list)


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(["chi", "mv", "hodge", "omega"]))
    g, n = draw(spaces)
    argv = [cmd, g, n]
    npts = int(n) if n.isdigit() else 1
    lists = st.one_of(
        st.lists(st.integers(0, 1), min_size=npts, max_size=npts),
        st.lists(st.integers(-1, 2), min_size=npts, max_size=npts),
        st.lists(st.integers(0, 2), max_size=4),
    ).map(lambda v: ",".join(map(str, v)))
    if cmd == "chi":
        routes = ("harer_zagier", "hodge_sum", "omega")
        argv += draw(st.sampled_from([[]] + [["--route", r] for r in routes]))
    elif cmd == "mv":
        argv += draw(st.sampled_from([[], ["--route", "omega"], ["--route", "hodge_sum"]]))
    elif cmd == "hodge":
        argv.append(draw(_tokens(["0", "1", "2"], ["-1", "-7"])))
        d = st.one_of(lists, st.sampled_from(NON_NUMERIC)).map(lambda t: [t])
        argv += draw(st.one_of(st.just([]), d))
    else:
        argv.append(draw(_tokens(["1", "1", "2"], ["0", "-1"])))
        argv.append(draw(_tokens(["0", "1", "-1"], [])))
        argv.append(draw(st.one_of(lists, lists, st.sampled_from(NON_NUMERIC))))
        if draw(st.booleans()):
            argv += ["-x", draw(st.sampled_from(["1", "-1", "1/2", "0", "abc", "1/0"]))]
        if draw(st.booleans()):
            classes = ["psi1", "k1", "psi1^2*k1", "1", "q1", "psi9", "k0", "psi1^-1"]
            argv += ["--test-class", draw(st.sampled_from(classes))]
        if draw(st.booleans()):
            argv += ["--route", draw(st.sampled_from(["auto", "graph", "graph-raw", "closed"]))]
    if draw(st.booleans()):
        argv += ["--decimal", draw(st.sampled_from(["4", "0", "-2", "abc"]))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "csv", "xml"]))]
    return argv


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=argvs())
def test_cli_exit_codes_on_drawn_argv(argv, capsys):
    code, err = run_usage(argv, capsys)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        assert err.count("error:") == 1, (argv, err)


def run_python(args, timeout):
    """`python args` with this checkout's package on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(tautint.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_test_class_is_one_monomial():
    # repeated factors merge, zero powers drop out, a degree above dim gives 0
    factors = cli._monomial_expr("psi1*k1*psi1^2*k2^0*psi3^0*k1")
    assert cli._test_class(factors, 2, 3) == TautPolynomial.from_monomial(3, 6, ((1, 2),), (3, 0, 0))
    assert cli._test_class(factors, 1, 3) == TautPolynomial(3, 3)


def test_test_class_power_above_dimension_is_zero_at_once():
    # the test class is built as one monomial, so a huge power costs nothing
    args = ["-m", "tautint", "omega", "1", "1", "2", "0", "2", "--test-class", "k1^1000000000"]
    proc = run_python(args, timeout=10)
    assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr


def test_call_count_repeats_exactly():
    # every code object counts, so two cold runs of one workload agree
    root = Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(root / "scripts" / "call_count.py"), "--workload", "closed_form"]
    runs = [subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=120) for _ in range(2)]
    assert all(run.returncode == 0 for run in runs), runs[0].stderr
    first, second = (json.loads(run.stdout) for run in runs)
    assert first == second and first["correct"] is True and first["calls"] > 0


@pytest.mark.parametrize(
    "argv", [["degree_bounds_scan.py", "--dimmax", "2"], ["chi_mv_table.py", "--dimmax", "3"]]
)
def test_scripts_run_clean(argv):
    script = Path(__file__).parents[1] / "scripts" / argv[0]
    proc = run_python([str(script), *argv[1:]], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and "FAIL" not in proc.stdout


def test_code_lines_counts_neither_docstrings_nor_comments(tmp_path):
    # counted: the two lines of x, "class C:", "def f", and the two lines of a
    # string that is returned, not a docstring
    src = tmp_path / "m.py"
    src.write_text(
        '"""Module\ndocstring."""\n\n# comment\nx = (1,\n     2)  # trailing\n\n\n'
        'class C:\n    """Doc."""\n\n    def f(self):\n        """Two\n        lines."""\n'
        '        return """not a\n        docstring"""\n'
    )
    script = Path(__file__).parents[1] / "scripts" / "code_lines.py"
    proc = run_python([str(script), str(src)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["6", str(src), "6", "total"]
