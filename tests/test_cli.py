import io
import json
import sys
from pathlib import Path

import pytest

from hkdensity import (DimMismatchError, Rat, SegrePair, SpecParseError,
                       ToricPair)
from hkdensity import cli
from hkdensity.cli import main, parse_spec, run_command

import reference
from conftest import line_density_form


LINE2 = '{"vertices": [[0], [2]]}'
PLANE = '{"rays": [[1,0],[0,1],[-1,-1]], "coeffs": [1,1,1]}'
SQUARE = '{"vertices": [[-1,-1],[1,-1],[-1,1],[1,1]]}'
SIMPLEX = '{"vertices": [[0,0],[1,0],[0,1]]}'
CUBE = ('{"segre": [{"vertices": [[0],[1]]}, {"vertices": [[0],[1]]}, '
        '{"vertices": [[0],[1]]}]}')


def run(capsys, argv, stdin_text, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    status = main(argv)
    out = capsys.readouterr().out
    return status, out


# --- parse_spec ----------------------------------------------------------------

def test_parse_vertices_form():
    pair = parse_spec(LINE2)
    assert isinstance(pair, ToricPair)
    assert pair.d == 2 and pair.l == 2


def test_parse_fan_form():
    pair = parse_spec(PLANE)
    assert isinstance(pair, ToricPair)
    assert pair.l == 3


def test_parse_segre_form():
    pair = parse_spec(CUBE)
    assert isinstance(pair, SegrePair)
    assert pair.d == 4


def test_parse_rejects_malformed():
    with pytest.raises(SpecParseError):
        parse_spec("not json")
    with pytest.raises(SpecParseError):
        parse_spec('{"vertices": [[0]], "rays": [[1]]}')
    with pytest.raises(SpecParseError):
        parse_spec('{"rays": [[1,0]]}')
    with pytest.raises(SpecParseError):
        parse_spec('{"vertices": [[0, "x"]]}')
    with pytest.raises(SpecParseError):
        parse_spec('{"segre": [{"vertices": [[0],[1]]}]}')
    # a point that is not a list is a parse error, not a TypeError
    for spec in ('{"vertices": [1, 2]}', '{"rays": [1, 2], "coeffs": [1, 1]}'):
        with pytest.raises(SpecParseError):
            parse_spec(spec)
        status, text, ext = run_command("density", spec)
        assert (status, ext) == (1, "json")
        assert json.loads(text)["error"]["code"] == "parse_error"


@pytest.mark.parametrize("spec", [
    # a fan key on a vertex spec, and a misspelt key
    '{"vertices": [[0,0],[1,0],[0,1]], "coeffs": [1]}',
    '{"vertices": [[0,0],[1,0],[0,1]], "verticse": [[5,5]]}',
    '{"rays": [[1,0],[0,1],[-1,-1]], "coeffs": [1,1,1], "vertices_": []}',
    '{"segre": [{"vertices": [[0],[1]]}, {"vertices": [[0],[1]]}], "k": 2}',
    # nested one and two levels down
    '{"segre": [{"vertices": [[0],[1]]}, {"vertices": [[0],[1]], "coeffs": [1]}]}',
    '{"segre": [{"vertices": [[0],[1]]}, {"segre": [{"vertices": [[0],[2]]}, '
    '{"vertices": [[0],[1]], "coeff": [1]}]}]}',
])
def test_unknown_spec_keys_are_parse_errors(spec, capsys, monkeypatch):
    with pytest.raises(SpecParseError):
        parse_spec(spec)
    status, text, ext = run_command("ehk", spec)
    assert (status, ext) == (1, "json")
    assert json.loads(text)["error"]["code"] == "parse_error"
    status, out = run(capsys, ["ehk"], spec, monkeypatch)
    assert status == 1
    assert json.loads(out)["error"]["code"] == "parse_error"


@pytest.mark.parametrize("spec,message", [
    ('{"vertices": [[0,0],[1e3,0],[0,1]]}',
     "$.vertices[1][0]: expected an integer, got 1000.0"),
    ('{"rays": [[1,0],[0,1],[-1,true]], "coeffs": [1,1,1]}',
     "$.rays[2][1]: expected an integer, got True"),
    ('{"segre": [{"vertices": [[0],[1]]}, {"vertices": [[0],[1], 2]}]}',
     "$.segre[1].vertices[2]: expected a list of integers, got 2"),
])
def test_spec_errors_name_the_bad_entry(spec, message):
    with pytest.raises(SpecParseError) as info:
        parse_spec(spec)
    assert str(info.value) == message
    status, text, _ = run_command("ehk", spec)
    assert status == 1
    assert json.loads(text)["error"] == {"code": "parse_error", "message": message}


def test_integer_past_the_digit_limit_is_a_parse_error():
    # json raises a plain ValueError, not a JSONDecodeError, for an integer
    # longer than the interpreter converts from a string
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no limit on integer string conversion")
    spec = '{"vertices": [[0], [%s]]}' % ("1" * (limit + 100))
    with pytest.raises(SpecParseError):
        parse_spec(spec)
    status, text, ext = run_command("ehk", spec)
    assert (status, ext) == (1, "json")
    assert json.loads(text)["error"]["code"] == "parse_error"


@pytest.mark.parametrize("argv,spec,message", [
    (["convergence"], '{"vertices": [[0],[1]]}',
     "'convergence' requires --q (comma list) and --lambda"),
    (["convergence", "--q", "2"], '{"vertices": [[0],[1]]}',
     "'convergence' requires --q (comma list) and --lambda"),
    (["convergence", "--lambda", "1"], '{"vertices": [[0],[1]]}',
     "'convergence' requires --q (comma list) and --lambda"),
    (["ehk"], "[]", "$: expected an object"),
    (["ehk"], '{"vertices": []}', "$.vertices: expected a nonempty list"),
    (["ehk"], '{"rays": [], "coeffs": []}', "$.rays: expected a nonempty list"),
])
def test_parse_errors_carry_their_message(argv, spec, message):
    status, text, ext = run_command(argv[0], spec, argv[1:])
    assert (status, ext) == (1, "json")
    assert json.loads(text)["error"] == {"code": "parse_error", "message": message}


@pytest.mark.parametrize("spec", [
    # json would keep the last value: the line of degree 3
    '{"vertices": [[0],[1]], "vertices": [[0],[3]]}',
    '{"rays": [[1],[-1]], "coeffs": [1,1], "coeffs": [0,2]}',
    '{"segre": [{"vertices": [[0],[1]]}, {"vertices": [[0],[1]], '
    '"vertices": [[0],[2]]}]}',
])
def test_duplicate_spec_keys_are_parse_errors(spec, capsys, monkeypatch):
    with pytest.raises(SpecParseError, match="duplicate key"):
        parse_spec(spec)
    status, out = run(capsys, ["ehk"], spec, monkeypatch)
    assert status == 1
    assert json.loads(out)["error"]["code"] == "parse_error"


@pytest.mark.parametrize("spec", [
    # a short ray, and a long one whose extra coordinate must not be dropped
    '{"rays": [[1,0],[0]], "coeffs": [1,1]}',
    '{"rays": [[1,0],[0,1],[-1,-1,0]], "coeffs": [1,1,1]}',
])
def test_rays_of_mixed_dimension_are_dim_mismatch(spec, capsys, monkeypatch):
    with pytest.raises(DimMismatchError, match="rays of mixed dimension"):
        parse_spec(spec)
    error = {"error": {"code": "dim_mismatch",
                       "message": "rays of mixed dimension"}}
    status, text, ext = run_command("ehk", spec)
    assert (status, ext, json.loads(text)) == (1, "json", error)
    status, out = run(capsys, ["ehk"], spec, monkeypatch)
    assert (status, json.loads(out)) == (1, error)


# --- commands ---------------------------------------------------------------------

def test_density_json_round_trip(capsys, monkeypatch):
    status, out = run(capsys, ["density"], LINE2, monkeypatch)
    assert status == 0
    data = json.loads(out)
    assert data["breakpoints"] == ["0", "1", "3/2"]
    assert data["pieces"] == [["0", "2"], ["6", "-4"]]
    assert reference.pw_from_json(data) == line_density_form(2)


def test_density_csv_row_count(capsys, monkeypatch):
    status, out = run(capsys, ["density", "--format", "csv", "--samples", "10"],
                      LINE2, monkeypatch)
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,value"
    assert len(lines) == 12  # header + samples + 1 rows
    assert lines[1] == "0,0"
    assert lines[-1] == "3/2,0"


def test_density_svg(capsys, monkeypatch):
    status, out = run(capsys, ["density", "--format", "svg", "--samples", "32"],
                      LINE2, monkeypatch)
    assert status == 0
    assert out.startswith("<svg") and "polyline" in out and "circle" in out


def test_phi_with_scaling(capsys, monkeypatch):
    status, out = run(capsys, ["phi", "--k", "2"], LINE2, monkeypatch)
    data = json.loads(out)
    assert data == {"breakpoints": ["0", "1/4"], "pieces": [["1", "-4"]]}


def test_ehk_and_power(capsys, monkeypatch):
    status, out = run(capsys, ["ehk"], LINE2, monkeypatch)
    assert json.loads(out) == {"e_hk": "3/2"}
    status, out = run(capsys, ["ehk", "--k", "2"], LINE2, monkeypatch)
    assert json.loads(out) == {"k": 2, "e_hk_power": "5"}


def test_limit_command(capsys, monkeypatch):
    status, out = run(capsys, ["limit"], PLANE, monkeypatch)
    assert json.loads(out) == {
        "e0": "9", "phi_integral": "1/3", "limit_A": "3/2"}


def test_tiling_command(capsys, monkeypatch):
    status, out = run(capsys, ["tiling"], SQUARE, monkeypatch)
    assert json.loads(out) == {"is_tiler": True, "B": "0"}
    status, out = run(capsys, ["tiling"], PLANE, monkeypatch)
    data = json.loads(out)
    assert data["is_tiler"] is False and float(data["B"]) > 1e-9


def test_oracle_command(capsys, monkeypatch):
    status, out = run(capsys, ["oracle", "--q", "2", "--lambda", "1"],
                      SIMPLEX, monkeypatch)
    assert json.loads(out) == {"q": 2, "m": 2, "count": 3, "f_value": "3/4"}


def test_convergence_csv(capsys, monkeypatch):
    status, out = run(capsys,
                      ["convergence", "--lambda", "5/4", "--q", "4,8",
                       "--format", "csv"],
                      LINE2, monkeypatch)
    lines = out.strip().splitlines()
    assert lines[0] == "q,m,count,f_value,exact_value,gap"
    assert len(lines) == 3


def test_report_command(capsys, monkeypatch):
    status, out = run(capsys, ["report"], PLANE, monkeypatch)
    data = json.loads(out)
    assert data["e0"] == "9" and data["h0"] == 10
    assert isinstance(data["e_hk"], str) and Rat(*map(int, data["e_hk"].split("/")))
    assert data["phi_integral"] == "1/3"
    assert data["is_tiler"] is False


def test_segre_command(capsys, monkeypatch):
    status, out = run(capsys, ["segre"], CUBE, monkeypatch)
    data = json.loads(out)
    # the density folds over the factors, so a product of any dimension has one
    assert data["hkd"]["breakpoints"] == ["0", "1", "2"]
    assert data["e_hk"] == "2"
    assert data["phi"] == {"breakpoints": ["0", "1"],
                           "pieces": [["1", "0", "0", "-1"]]}
    assert data["is_tiler"] is True
    status, out = run(capsys, ["segre"], LINE2, monkeypatch)
    assert status == 1
    assert json.loads(out)["error"]["code"] == "parse_error"


# --- errors and outputs ---------------------------------------------------------------

def test_engine_error_exit_status(capsys, monkeypatch):
    status, out = run(capsys, ["density"],
                      '{"rays": [[1,0]], "coeffs": [1]}', monkeypatch)
    assert status == 1
    assert json.loads(out)["error"]["code"] == "unbounded"


def test_parse_error_exit_status(capsys, monkeypatch):
    status, out = run(capsys, ["ehk"], "garbage", monkeypatch)
    assert status == 1
    assert json.loads(out)["error"]["code"] == "parse_error"


def test_missing_oracle_flags(capsys, monkeypatch):
    status, out = run(capsys, ["oracle"], SIMPLEX, monkeypatch)
    assert status == 1
    assert json.loads(out)["error"]["code"] == "parse_error"


SIMPLEX3 = '{"vertices": [[0,0,0],[1,0,0],[0,1,0],[0,0,1]]}'
SIMPLEX3_LINE = '{"segre": [%s, {"vertices": [[0],[1]]}]}' % SIMPLEX3


@pytest.mark.parametrize("spec", [SIMPLEX3, SIMPLEX3_LINE],
                         ids=["simplex", "product"])
@pytest.mark.parametrize("command", ["density", "phi", "ehk", "limit",
                                     "tiling", "report"])
def test_exact_commands_refuse_a_factor_of_dimension_three(command, spec):
    status, text, ext = run_command(command, spec)
    assert (status, ext) == (1, "json")
    assert json.loads(text) == {"error": {
        "code": "unsupported_dimension",
        "message": "no exact function for a factor of dimension 3 that is "
                   "not a lattice box; use the counting oracle ('oracle')"}}


@pytest.mark.parametrize("spec,count", [(SIMPLEX3, 31), (SIMPLEX3_LINE, 167)],
                         ids=["simplex", "product"])
def test_oracle_answers_a_factor_of_dimension_three(spec, count):
    status, text, _ = run_command("oracle", spec, ["--q", "4", "--lambda", "1"])
    assert status == 0 and json.loads(text)["count"] == count


@pytest.mark.parametrize("command,q", [
    ("oracle", "2,4"), ("oracle", "0"), ("oracle", "x"),
    ("convergence", "0"), ("convergence", "x"), ("convergence", "4,x"),
    ("convergence", "4,,8"), ("convergence", "4,"), ("oracle", ""),
    ("convergence", ""),
])
def test_bad_q_is_a_parse_error(command, q, capsys, monkeypatch):
    # oracle counts at one Frobenius level; only convergence takes a list
    from hkdensity.cli import run_command
    options = ["--q", q, "--lambda", "1"]
    status, text, ext = run_command(command, SIMPLEX, options)
    assert (status, ext) == (1, "json")
    assert json.loads(text)["error"]["code"] == "parse_error"
    assert run(capsys, [command] + options, SIMPLEX, monkeypatch) == (status, text)


def test_output_directory(tmp_path, capsys, monkeypatch):
    status, out = run(capsys, ["density", "--output", str(tmp_path)],
                      LINE2, monkeypatch)
    assert status == 0
    written = tmp_path / "density.json"
    assert written.exists()
    assert json.loads(written.read_text())["breakpoints"] == ["0", "1", "3/2"]


@pytest.mark.parametrize("below,errno_name", [("", "EEXIST"), ("sub", "ENOTDIR")])
def test_unwritable_output_directory_is_a_parse_error(below, errno_name, tmp_path,
                                                      capsys, monkeypatch):
    # a file where the directory, or one of its parents, would go
    import errno
    import os
    blocker = tmp_path / "F"
    blocker.write_text("kept")
    target = blocker / below if below else blocker
    status, out = run(capsys, ["ehk", "--output", str(target)], LINE2, monkeypatch)
    strerror = os.strerror(getattr(errno, errno_name))
    assert status == 1
    assert json.loads(out) == {"error": {
        "code": "parse_error",
        "message": f"cannot write output directory {target}: {strerror}"}}
    assert blocker.read_text() == "kept"


def test_run_command_writes_the_output_directory(tmp_path, capsys,
                                                 monkeypatch):
    # run_command writes DIR/<command>.<ext> and returns the path line, as
    # the command line prints it; a DIR below a file is the same parse_error
    import errno
    import os
    _, artifact, _ = run_command("density", LINE2, ["--format", "csv"])
    options = ["--format", "csv", "--output", str(tmp_path / "out")]
    written = tmp_path / "out" / "density.csv"
    assert run_command("density", LINE2, options) == (0, f"{written}\n", "csv")
    assert written.read_text() == artifact
    assert run(capsys, ["density"] + options, LINE2, monkeypatch) == (
        0, f"{written}\n")
    blocked = written / "sub"
    status, text, ext = run_command("ehk", LINE2, ["--output", str(blocked)])
    assert (status, ext) == (1, "json")
    assert json.loads(text) == {"error": {
        "code": "parse_error", "message": "cannot write output directory "
        f"{blocked}: {os.strerror(errno.ENOTDIR)}"}}
    assert run(capsys, ["ehk", "--output", str(blocked)], LINE2,
               monkeypatch) == (status, text)
    assert written.read_text() == artifact


def test_input_file(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "pair.json"
    spec.write_text(LINE2)
    status = main(["ehk", "--input", str(spec)])
    out = capsys.readouterr().out
    assert status == 0 and json.loads(out) == {"e_hk": "3/2"}


def test_missing_input_file(capsys):
    status = main(["ehk", "--input", "/nonexistent/pair.json"])
    out = capsys.readouterr().out
    assert status == 1
    assert json.loads(out)["error"]["code"] == "parse_error"


def test_input_directory_is_a_parse_error(tmp_path, capsys):
    status = main(["ehk", "--input", str(tmp_path)])
    out = capsys.readouterr().out
    assert status == 1
    assert json.loads(out)["error"]["code"] == "parse_error"
    status, text, ext = run_command("ehk", None, ["--input", str(tmp_path)])
    assert (status, text, ext) == (1, out, "json")


def test_run_command_programmatic():
    from hkdensity.cli import run_command
    status, text, ext = run_command("ehk", LINE2)
    assert (status, ext) == (0, "json")
    assert json.loads(text) == {"e_hk": "3/2"}
    status, text, ext = run_command(
        "density", LINE2, ["--format", "csv", "--samples", "4"])
    assert ext == "csv" and len(text.strip().splitlines()) == 6


def test_run_command_oracle_options():
    from hkdensity.cli import run_command
    status, text, ext = run_command(
        "oracle", SIMPLEX, ["--q", "2", "--lambda", "1"])
    assert (status, ext) == (0, "json")
    assert json.loads(text) == {"q": 2, "m": 2, "count": 3, "f_value": "3/4"}


def test_run_command_agrees_with_main_on_degenerate_spec(capsys, monkeypatch):
    from hkdensity.cli import run_command
    spec = '{"vertices": [[0, 0], [1, 1]]}'
    status, text, ext = run_command("density", spec)
    assert (status, ext) == (1, "json")
    assert json.loads(text)["error"]["code"] == "degenerate"
    assert run(capsys, ["density"], spec, monkeypatch) == (status, text)


@pytest.mark.parametrize("spec,code,message", [
    ('{"rays": [[1,0],[0,1],[-1,-2]], "coeffs": [0,0,1]}',
     "non_integral_vertex", "divisor polytope has non-integral vertices"),
    ('{"vertices": [[0,0],[1,1],[2,2]]}',
     "degenerate", "base polytope must be full-dimensional"),
    ('{"rays": [[1,0],[-1,0],[0,1],[0,-1]], "coeffs": [0,0,0,1]}',
     "degenerate", "divisor polytope has dimension 1 < 2"),
    ('{"rays": [[1,0],[0,1],[-1,-1,0]], "coeffs": [1,1,1]}',
     "dim_mismatch", "rays of mixed dimension"),
    ('{"rays": [[1,0],[0,1]], "coeffs": [1,1]}',
     "unbounded", "half-space intersection is unbounded"),
    ('{"rays": [[1,0],[-1,0],[0,1],[0,-1]], "coeffs": [-2,1,1,1]}',
     "empty", "half-space intersection is empty"),
], ids=["rational_vertex", "collinear_vertices", "flat_fan", "mixed_rays",
        "unbounded_fan", "empty_fan"])
def test_rejected_base_keeps_its_code_and_message(spec, code, message):
    # a base polytope is a full-dimensional lattice polytope or an error
    status, text, ext = run_command("ehk", spec)
    assert (status, ext) == (1, "json")
    assert json.loads(text) == {"error": {"code": code, "message": message}}


def test_run_command_returns_usage_status_like_main(capsys):
    from hkdensity.cli import run_command
    status, text, ext = run_command("density", LINE2, ["--format", "xml"])
    err = capsys.readouterr().err
    assert (status, text, ext) == (2, "", None)
    assert "invalid choice: 'xml'" in err
    assert main(["density", "--format", "xml"]) == status
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command,options", [
    ("limit", ["--k", "2"]),
    ("tiling", ["--k", "3"]),
    ("ehk", ["--format", "csv"]),
    ("convergence", ["--q", "4", "--lambda", "1", "--format", "svg"]),
    ("density", ["--q", "4"]),
    ("oracle", ["--q", "2", "--lambda", "1", "--samples", "8"]),
])
def test_run_command_rejects_flags_the_command_ignores(command, options,
                                                       capsys):
    # each subcommand registers only the flags its handler reads
    from hkdensity.cli import run_command
    assert run_command(command, LINE2, options) == (2, "", None)
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["density", "--"], "unrecognized arguments: --"),
    (["density", "--", "--format", "csv"],
     "unrecognized arguments: -- --format csv"),
    (["ehk", "--", "2"], "unrecognized arguments: -- 2"),
    (["ehk", "--k", "--", "2"], "argument --k: expected one argument"),
    (["--", "ehk"], "argument command: invalid choice: '--' (choose from "
                    "'density', 'phi', 'ehk', 'limit', 'tiling', 'report', "
                    "'segre', 'oracle', 'convergence')"),
])
def test_double_dash_ends_the_options(argv, message, capsys):
    # every argument after "--" is a positional, and no command takes one
    assert cli._execute(argv, LINE2) == (None, 2, "", None)
    assert capsys.readouterr().err.splitlines()[1].split("error: ", 1)[1] == message


def test_cli_import_does_not_load_numpy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hkdensity
    env = dict(os.environ, PYTHONPATH=str(Path(hkdensity.__file__).parents[1]))

    def python(script, *options):
        done = subprocess.run([sys.executable, *options, "-c", script], env=env,
                              check=True, capture_output=True, text=True)
        return json.loads(done.stdout)

    modules = "json.dumps(sorted(sys.modules))"
    bare = set(python(f"import json, sys; print({modules})"))
    cli_loaded = python(f"import hkdensity.cli, json, sys; print({modules})")
    assert "numpy" not in cli_loaded
    # the command line is parsed from the command table, without argparse;
    # pathlib comes in only to read --input or write --output (without the
    # site packages, whose .pth files may import it, nothing else loads it)
    assert "argparse" not in cli_loaded
    assert "pathlib" not in python(
        f"import hkdensity.cli, json, sys; print({modules})", "-S")
    # emission reads piecewise values without importing their module
    assert "hkdensity.piecewise" not in cli_loaded
    # csv is imported only when a command writes csv
    assert "csv" in bare or "csv" not in cli_loaded
    # with numpy unimportable, the counting commands still run; on a base
    # out of reach of the exact engine they load neither it nor the area
    # layer, and no command loads dataclasses
    script = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from hkdensity.cli import run_command\n"
        "runs = [\n"
        f"    run_command('oracle', {CUBE!r}, ['--q', '8', '--lambda', '3/2']),\n"
        f"    run_command('convergence', {CUBE!r},\n"
        "                ['--q', '4', '--lambda', '3/2', '--format', 'csv'])]\n"
        f"loaded = {modules}\n"
        f"runs.append(run_command('convergence', {SIMPLEX!r},\n"
        "             ['--q', '4,8', '--lambda', '1', '--format', 'csv']))\n"
        "print(json.dumps([runs, loaded]))\n")
    (oracle_run, cube_run, convergence_run), loaded = python(script)
    assert oracle_run == [0, '{"q": 8, "m": 12, "count": 1197, '
                             '"f_value": "1197/512"}\n', "json"]
    assert cube_run == [0, "q,m,count,f_value,exact_value,gap\n"
                           "4,6,127,127/64,,\n", "csv"]
    assert convergence_run == [0, "q,m,count,f_value,exact_value,gap\n"
                                  "4,4,12,3/4,1/2,1/4\n"
                                  "8,8,42,21/32,1/2,5/32\n", "csv"]
    assert "hkdensity.oracle" in loaded
    assert "hkdensity.regions" not in loaded
    assert "hkdensity.analysis" not in loaded
    assert "hkdensity.piecewise" not in loaded
    assert "dataclasses" in bare or "dataclasses" not in loaded
    # annotations evaluate eagerly: no module imports __future__
    assert "__future__" in bare or "__future__" not in loaded
    # a planar base loads the area engine; a line is answered in closed form
    # by every command and never loads it
    density_run, loaded = python(
        "import json, sys\n"
        "from hkdensity.cli import run_command\n"
        f"run = run_command('density', {SIMPLEX!r})\n"
        f"print(json.dumps([run, {modules}]))\n")
    assert density_run[0] == 0 and "hkdensity.regions" in loaded
    assert "argparse" not in loaded
    assert "dataclasses" in bare or "dataclasses" not in loaded
    assert "__future__" in bare or "__future__" not in loaded
    line_runs, loaded = python(
        "import json, sys\n"
        "from hkdensity.cli import run_command\n"
        f"runs = [run_command(c, {LINE2!r}) for c in ('density', 'phi', 'report')]\n"
        f"print(json.dumps([runs, {modules}]))\n")
    assert [run[0] for run in line_runs] == [0, 0, 0]
    assert "hkdensity.analysis" in loaded
    assert "hkdensity.regions" not in loaded
    assert "__future__" in bare or "__future__" not in loaded


def test_products_of_lines_do_not_load_the_area_engine():
    import os
    import subprocess
    from pathlib import Path

    import hkdensity
    env = dict(os.environ, PYTHONPATH=str(Path(hkdensity.__file__).parents[1]))
    spec = '{"segre": [{"vertices": [[0],[1]]}, {"vertices": [[0],[2]]}]}'
    script = (
        "import json, sys\n"
        "from hkdensity.cli import run_command\n"
        f"runs = [run_command(c, {spec!r}) for c in ('segre', 'density')]\n"
        "print(json.dumps([[run[0] for run in runs], sorted(sys.modules)]))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    statuses, loaded = json.loads(done.stdout)
    assert statuses == [0, 0]
    assert "hkdensity.analysis" in loaded
    assert "hkdensity.regions" not in loaded


def test_lattice_boxes_do_not_load_the_area_engine():
    # a box up to a unimodular map folds over its edge segments
    import os
    import subprocess

    import hkdensity
    env = dict(os.environ, PYTHONPATH=str(Path(hkdensity.__file__).parents[1]))
    square = '{"vertices": [[0,0],[1,0],[0,1],[1,1]]}'
    quadric = '{"rays": [[1,0],[-1,0],[0,1],[0,-1]], "coeffs": [1,1,1,1]}'
    script = (
        "import json, sys\n"
        "from hkdensity.cli import run_command\n"
        f"runs = [run_command('ehk', {square!r}, ['--k', '2']),\n"
        f"        run_command('tiling', {quadric!r})]\n"
        "print(json.dumps([[run[:2] for run in runs], sorted(sys.modules)]))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    runs, loaded = json.loads(done.stdout)
    assert runs == [[0, '{"k": 2, "e_hk_power": "6"}\n'],
                    [0, '{"is_tiler": true, "B": "0"}\n']]
    assert "hkdensity.analysis" in loaded
    assert "hkdensity.regions" not in loaded


@pytest.mark.parametrize("command, message", [
    ("density", "density function discontinuous at level 1"),
    ("phi", "defect function must start at 1 and vanish at the cover scale"),
], ids=["density", "phi"])
def test_run_command_reports_failed_certificate(command, message, monkeypatch):
    # a wrong area function must surface as a typed error, not a traceback:
    # x on [0, 1] is 1 at z = 1, not the simplex's area 1/2, and 0 at t = 0,
    # where phi is 1
    from hkdensity import PiecewisePoly, Poly, analysis, regions
    from hkdensity.cli import run_command
    monkeypatch.setattr(regions, "family_volume_function",
                        lambda *args, **kwargs: PiecewisePoly.build(
                            [0, 1], [Poly.of(0, 1)]))
    analysis._hkd_cached.cache_clear()
    analysis._phi_cached.cache_clear()
    status, text, ext = run_command(command, SIMPLEX)
    assert (status, ext) == (1, "json")
    assert json.loads(text)["error"] == {
        "code": "breakpoint_verification_failed", "message": message}


def test_density_reports_a_discontinuous_tail(monkeypatch):
    # the tail starts at the simplex's area 1/2 at z = 1 and then jumps at
    # z = 3/2: the assembled density fails its continuity certificate
    from hkdensity import PiecewisePoly, Poly, analysis, regions
    monkeypatch.setattr(regions, "family_volume_function",
                        lambda *args, **kwargs: PiecewisePoly.build(
                            [1, Rat(3, 2), 2],
                            [Poly.of(Rat(1, 2)), Poly.of(1)]))
    analysis._hkd_cached.cache_clear()
    status, text, ext = run_command("density", SIMPLEX)
    assert (status, ext) == (1, "json")
    assert json.loads(text)["error"] == {
        "code": "breakpoint_verification_failed",
        "message": "density function fails exact continuity"}


def test_value_error_is_invalid_argument():
    # the density of the line of degree 10^2500 has a coefficient of 5001
    # digits, past the interpreter's limit for str(int): the ValueError is
    # reported as invalid_argument (whether to lift the limit is open)
    spec = json.dumps({"vertices": [[0], [10 ** 2500]]})
    status, text, ext = run_command("density", spec)
    assert (status, ext) == (1, "json")
    assert json.loads(text)["error"]["code"] == "invalid_argument"


def test_line_commands_never_run_the_engine(monkeypatch):
    # every invariant of a line of degree n is a closed form in n, so a
    # degree far beyond the engine's reach answers without it
    from hkdensity import analysis, regions
    from conftest import line_defect_form

    def engine(*args, **kwargs):
        raise AssertionError("the area engine ran on a line")

    for name in ("family_volume_function", "hk_family", "phi_family"):
        monkeypatch.setattr(regions, name, engine)
    analysis._hkd_cached.cache_clear()
    analysis._phi_cached.cache_clear()
    n = 10 ** 6
    spec = json.dumps({"vertices": [[0], [n]]})

    def answer(command, *options):
        status, text, _ = run_command(command, spec, list(options))
        assert status == 0, text
        return json.loads(text)

    assert answer("ehk") == {"e_hk": "1000001/2"}
    assert answer("ehk", "--k", "3") == {"k": 3, "e_hk_power": "9000003/2"}
    assert reference.pw_from_json(answer("density")) == line_density_form(n)
    assert reference.pw_from_json(answer("phi")) == line_defect_form(n)
    assert answer("limit") == {"e0": "1000000", "phi_integral": "1/2000000",
                               "limit_A": "1/2"}
    assert answer("tiling") == {"is_tiler": True, "B": "0"}
    report = answer("report")
    assert report["h0"] == 1000001 and report["e_hk"] == "1000001/2"
    assert report["tiling_gap_B"] == "0" and report["is_tiler"] is True
    assert reference.pw_from_json(report["hkd"]) == line_density_form(n)


def test_readme_examples():
    # each README example is "$ echo 'SPEC' | hkdensity ARGS" followed by its
    # stdout lines; CI runs the same lines through the installed script
    import shlex
    from pathlib import Path
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    examples = [i for i, line in enumerate(lines) if line.startswith("$ ")]
    assert len(examples) == 3
    for i in examples:
        echo, command = lines[i][2:].split(" | ")
        spec = shlex.split(echo)[1]
        argv = shlex.split(command)
        assert argv[0] == "hkdensity"
        want = []
        for text in lines[i + 1:]:
            if not text or text.startswith(("$ ", "```")):
                break
            want.append(text + "\n")
        status, text, _ = run_command(argv[1], spec, argv[2:])
        assert (status, text) == (0, "".join(want))


def test_readme_lists_every_error_code():
    from hkdensity import EngineError
    classes, codes = [EngineError], set()
    while classes:
        cls = classes.pop()
        codes.add(cls.code)
        classes += cls.__subclasses__()
    rows = reference._table(README.splitlines(), "| code")
    listed = [reference._ticked(row[0])[0] for row in rows]
    assert sorted(listed) == sorted(codes | {"invalid_argument"})


def test_readme_python_api_block():
    block = README.split("## Python API", 1)[1].split("```python\n", 1)[1]
    scope = {}
    exec(block.split("```", 1)[0], scope)
    assert scope["f"].integral() == scope["report"].e_hk == Rat(10, 3)


# --- the process entry ------------------------------------------------------------

def _process(*args, stdin=""):
    """``python *args`` with the package on its path and stdout buffered, as
    the console script runs it: (exit status, stdout bytes, stderr text)."""
    import os
    import subprocess

    import hkdensity
    env = dict(os.environ, PYTHONPATH=str(Path(hkdensity.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, *args], env=env, input=stdin.encode(),
                          capture_output=True, timeout=60)
    return done.returncode, done.stdout, done.stderr.decode()


def test_process_entry_writes_a_large_artifact_whole():
    # far past a 64 KiB pipe buffer, and byte for byte what run_command gives
    argv = ["density", "--format", "csv", "--samples", "20000"]
    status, out, err = _process("-m", "hkdensity.cli", *argv, stdin=PLANE)
    assert (status, len(out), err) == (0, 515236, "")
    assert out == run_command("density", PLANE, argv[1:])[1].encode()


def test_process_entry_engine_error():
    spec = '{"vertices": [[0,0],[0,1]]}'
    status, out, err = _process("-m", "hkdensity.cli", "ehk", stdin=spec)
    assert (status, out, err) == (1, run_command("ehk", spec)[1].encode(), "")
    assert json.loads(out)["error"]["code"] == "degenerate"


def test_process_entry_usage_error():
    status, out, err = _process("-m", "hkdensity.cli", "density", "--format", "xml")
    usage, error = err.splitlines()
    assert (status, out) == (2, b"")
    assert usage.startswith("usage: hkdensity density [-h]")
    assert error == ("hkdensity density: error: argument --format: invalid "
                     "choice: 'xml' (choose from 'json', 'csv', 'svg')")


def test_process_entry_output_directory(tmp_path):
    status, out, err = _process("-m", "hkdensity.cli", "density", "--output",
                                str(tmp_path), stdin=LINE2)
    written = tmp_path / "density.json"
    assert (status, out, err) == (0, f"{written}\n".encode(), "")
    assert written.read_text() == run_command("density", LINE2)[1]


def test_process_entry_exits_normally_under_a_profiler():
    # with a profile function set, the process exits normally, so the
    # profiler prints its table after the artifact
    status, out, _ = _process("-m", "cProfile", "-m", "hkdensity.cli", "ehk",
                              stdin=LINE2)
    artifact, table = out.decode().split("\n", 1)
    assert (status, artifact) == (0, '{"e_hk": "3/2"}')
    assert "function calls" in table and "Ordered by" in table


class _Monitoring:
    """A stand-in for ``sys.monitoring`` (Python 3.12+) with the given tool
    ids in use."""

    def __init__(self, *ids):
        self.ids = ids

    def get_tool(self, tool_id):
        return "tool" if tool_id in self.ids else None


@pytest.mark.parametrize("ids,exits_normally", [((), False), ((2,), True),
                                                ((5,), True)])
def test_process_entry_exits_normally_under_a_monitoring_tool(
        ids, exits_normally, monkeypatch):
    # from 3.12 cProfile registers a sys.monitoring tool and sets no profile
    # function, so a tool in use alone keeps the normal exit
    import atexit
    import os

    from hkdensity import cli

    def hard_exit(status):
        raise AssertionError(f"os._exit({status})")

    monkeypatch.setattr(sys, "monitoring", _Monitoring(*ids), raising=False)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.setattr(cli, "main", lambda: 3)
    monkeypatch.setattr(os, "_exit", hard_exit)
    # this session's own exit callbacks must not run here
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: None)
    if exits_normally:
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 3
    else:
        with pytest.raises(AssertionError, match=r"os\._exit\(3\)"):
            cli.run()


def test_process_entry_runs_exit_callbacks():
    script = ("import atexit, runpy, sys\n"
              "atexit.register(print, 'bye', file=sys.stderr)\n"
              "sys.argv = ['hkdensity', 'ehk']\n"
              "runpy.run_module('hkdensity.cli', run_name='__main__')\n")
    status, out, err = _process("-c", script, stdin=LINE2)
    assert (status, out) == (0, b'{"e_hk": "3/2"}\n')
    assert err.endswith("bye\n")


# --- the command line against an argparse reference --------------------------

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
REFERENCE = reference.ReadmeCommandLine(README)

# per flag: values that parse and pass their check, then ones that fail
# either; every flag is tried on every command, which rejects the flags it
# does not take
FLAG_VALUES = {
    "--input": ["-", "pair.json"],
    "--output": ["out"],
    "--format": ["json", "csv", "svg", "xml", ""],
    "--samples": ["3", "0", "-2", "x", ""],
    "--k": ["2", "0", "-1", "x", "1.5"],
    "--q": ["2", "2,4", "0", "x", "4,x", "4,,8", "4,", "", "-1"],
    "--lambda": ["1", "3/2", "0", "-1", "x", "1/0"],
}
REQUIRED = {"oracle": ["--q", "2", "--lambda", "1"],
            "convergence": ["--q", "2,4", "--lambda", "1"]}


def _command_line_corpus(command):
    """Command lines of one command (None: without a valid command)."""
    if command is None:
        return [[], ["-h"], ["--help"], ["--he"], ["-h=x"], ["--help=x"],
                ["bogus"], ["Density"], ["--bogus"], ["--bogus", "ehk"],
                ["-x", "-h"], ["--input", "-", "ehk"], ["-1", "ehk"],
                ["--bogus", "ehk", "stray"]]
    required = REQUIRED.get(command, [])
    cases = [[command] + required]
    for extra in (["-h"], ["--help"], ["--he"], ["-h=x"], ["--help=x"],
                  ["stray"], ["-"], ["stray", "--bogus", "x"], ["--bogus"],
                  ["--bogus=1"], ["-x"], ["--=x"], ["--="], ["-x", "-h"]):
        cases += [[command] + extra + required, [command] + required + extra]
    for flag, values in FLAG_VALUES.items():
        # the required flags, less the one under test
        rest = [a for f, v in zip(required[::2], required[1::2]) if f != flag
                for a in (f, v)]
        for value in values:
            cases += [[command, flag, value] + rest,
                      [command, f"{flag}={value}"] + rest,
                      [command, flag[:3], value] + rest,
                      [command, f"{flag[:3]}={value}"] + rest]
        cases += [[command] + rest + [flag], [command, flag, "--input", "-"] + rest,
                  [command, flag, values[-1], flag, values[0]] + rest,
                  [command, flag, values[0], flag, values[-1]] + rest,
                  [command, flag, values[0], "-h"] + rest,
                  [command, flag, values[-1], "-h"] + rest]
    return cases


@pytest.mark.parametrize("command", [None, *REFERENCE.commands])
def test_command_line_matches_argparse_reference(command, tmp_path, capsys,
                                                 monkeypatch):
    # exit status, the parsed values and the message after "error:" all
    # match argparse's, and main() agrees with the programmatic path
    assert REFERENCE.commands == list(cli._COMMANDS)
    spec = CUBE if command == "segre" else LINE2
    (tmp_path / "pair.json").write_text(spec)
    monkeypatch.chdir(tmp_path)
    for argv in _command_line_corpus(command):
        want_status, want = REFERENCE.parse(argv)
        capsys.readouterr()  # argparse's help text
        args, status, text, ext = cli._execute(argv, spec)
        err = capsys.readouterr().err
        assert status == want_status, (argv, text, err)
        if status == 2:
            usage, error = err.splitlines()
            prog, message = error.split(": error: ", 1)
            assert usage.startswith("usage: hkdensity"), argv
            assert prog.startswith("hkdensity") and message == want, argv
            assert (args, text, ext) == (None, "", None), argv
        elif want is None and status == 0:  # -h or --help
            named = next((a for a in argv if a in cli._COMMANDS), None)
            words = ([f for f, *_ in REFERENCE.flags[named]] if named
                     else REFERENCE.commands)
            assert text.startswith("usage: hkdensity") and err == "", argv
            assert all(word in text.split() for word in words), (argv, text)
        elif status == 1:
            assert json.loads(text)["error"]["code"] == "parse_error", argv
        else:
            got = {flag: getattr(args, cli._FLAGS[flag][0]) for flag in want}
            assert got == want, argv
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
        assert main(argv) == status, argv
        out, main_err = capsys.readouterr()
        assert main_err == err, argv
        assert out == text, argv
