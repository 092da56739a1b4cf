"""Command-line interface: spec parsing, dispatch, and emission.

Input is a JSON pair spec in one of three forms:

    {"vertices": [[0], [2]]}
    {"rays": [[1,0],[0,1],[-1,-1]], "coeffs": [1,1,1]}
    {"segre": [SPEC, SPEC, ...]}

Any other key, or a key given twice, at any nesting level, is a parse
error.

Rationals serialize as strings "p/q" everywhere (JSON and CSV are
bit-exact): a handler returns the values it computed, and ``json.dumps``
prints each ``Rat`` through one hook, ``rat_str``.  SVG is the only lossy
output and is presentation-only.  Every engine failure exits nonzero with a
machine-readable error JSON carrying a stable code.

Only the layers a command runs are imported: spec parsing needs the pair
types alone, and each handler loads ``analysis`` or ``oracle`` itself.  The
command line is read in one pass against the command and flag tables
(``_COMMANDS``, ``_FLAGS``), with argparse's exit statuses and messages but
without importing it.
"""

import json
import re
import sys
from types import SimpleNamespace

from .errors import EngineError, SpecParseError
from .pairs import SegrePair, ToricPair, segre
from .rationals import Rat, parse_rat, rat_str, ratio_str


# ---------------------------------------------------------------------------
# pair specs
# ---------------------------------------------------------------------------

def _int_list(values, path):
    if not isinstance(values, list):
        raise SpecParseError(f"{path}: expected a list of integers, got {values!r}")
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, int):
            raise SpecParseError(f"{path}[{i}]: expected an integer, got {v!r}")
        out.append(v)
    return out


def _pair_from_data(data, path="$"):
    if not isinstance(data, dict):
        raise SpecParseError(f"{path}: expected an object")
    forms = [k for k in ("vertices", "rays", "segre") if k in data]
    if len(forms) != 1:
        raise SpecParseError(
            f"{path}: exactly one of 'vertices', 'rays'+'coeffs', 'segre' required")
    form = forms[0]
    unknown = sorted(set(data) - {form, "coeffs" if form == "rays" else form})
    if unknown:
        raise SpecParseError(f"{path}: unknown key {unknown[0]!r} in a "
                             f"{'rays+coeffs' if form == 'rays' else form} spec")
    if form == "vertices":
        pts = data["vertices"]
        if not isinstance(pts, list) or not pts:
            raise SpecParseError(f"{path}.vertices: expected a nonempty list")
        return ToricPair.from_vertices(
            [_int_list(p, f"{path}.vertices[{i}]") for i, p in enumerate(pts)])
    if form == "rays":
        rays = data.get("rays")
        coeffs = data.get("coeffs")
        if not isinstance(rays, list) or not rays:
            raise SpecParseError(f"{path}.rays: expected a nonempty list")
        if not isinstance(coeffs, list) or len(coeffs) != len(rays):
            raise SpecParseError(f"{path}.coeffs: one integer per ray required")
        return ToricPair.from_fan(
            [_int_list(r, f"{path}.rays[{i}]") for i, r in enumerate(rays)],
            _int_list(coeffs, f"{path}.coeffs"))
    subs = data["segre"]
    if not isinstance(subs, list) or len(subs) < 2:
        raise SpecParseError(f"{path}.segre: expected a list of >= 2 specs")
    return segre(*[
        _pair_from_data(s, f"{path}.segre[{i}]") for i, s in enumerate(subs)])


def _object(pairs):
    """A JSON object, refusing a key given twice (json would keep the last)."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise SpecParseError(f"duplicate key {key!r}")
        data[key] = value
    return data


def parse_spec(text: str):
    """Parse a JSON pair spec into a ToricPair or SegrePair."""
    try:
        data = json.loads(text, object_pairs_hook=_object)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise SpecParseError(f"invalid JSON: {exc}") from exc
    return _pair_from_data(data)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _b_string(b: float) -> str:
    return "0" if b == 0 else repr(b)


def pw_to_json(f) -> dict:
    """JSON document of a ``piecewise.PiecewisePoly``."""
    return {
        "breakpoints": [rat_str(b) for b in f.breakpoints],
        "pieces": [[rat_str(c) for c in p.coeffs] for p in f.pieces],
    }


def _fields(value) -> dict:
    """The fields of a ``rationals.Value``, by name in constructor order."""
    return {name: getattr(value, name) for name in value.__slots__}


def report_to_json(rep) -> dict:
    """JSON document of an ``analysis.HKReport``: its fields in order, the
    functions as ``pw_to_json`` documents and B through ``_b_string``."""
    return dict(_fields(rep), hkd=pw_to_json(rep.hkd), phi=pw_to_json(rep.phi),
                tiling_gap_B=_b_string(rep.tiling_gap_B))


def _sample_grid(f, samples: int):
    """(p, q, values): the samples sit at p*i/q for i = 0..samples, spanning
    [0, support end] (or [0, 1] when the support ends at or below 0), and
    ``values`` are f there as integer (numerator, denominator) pairs."""
    end = f.breakpoints[-1]
    if end <= 0:
        end = Rat(1)
    return (int(end.numerator), int(end.denominator) * samples,
            f.grid(end, samples))


def function_csv_rows(f, samples: int):
    """Exactly samples+1 rows spanning [0, support end] of the piecewise
    polynomial f, exact rationals."""
    p, q, values = _sample_grid(f, samples)
    rows = [("lambda", "value")]
    for i, (n, d) in enumerate(values):
        rows.append((ratio_str(p * i, q), ratio_str(n, d)))
    return rows


def function_svg(f, samples: int, title: str) -> str:
    """Static polyline plot with breakpoint markers (presentation only)."""
    width, height, margin = 640, 360, 40
    p, q, values = _sample_grid(f, samples)
    # int / int is correctly rounded, so each float equals float(Fraction)
    xs = [p * i / q for i in range(samples + 1)]
    end = xs[-1]  # the CSV's span
    ys = [n / d for n, d in values]
    top = max(ys) or 1.0

    def px(x):
        return margin + (width - 2 * margin) * x / end

    def py(y):
        return height - margin - (height - 2 * margin) * y / top

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    marks = "".join(
        f'<circle cx="{px(float(b)):.2f}" cy="{py(float(f(b))):.2f}" r="3" fill="#c33"/>'
        for b in f.breakpoints)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#888"/>'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="#888"/>'
        f'<polyline points="{pts}" fill="none" stroke="#36c" stroke-width="1.5"/>'
        f"{marks}"
        f'<text x="{margin}" y="{margin - 10}" font-size="13">{title}</text>'
        "</svg>"
    )


def _csv_text(rows) -> str:
    # no field holds a comma, a quote or a newline, so none needs quoting
    return "".join(",".join(row) + "\n" for row in rows)


def convergence_csv_rows(rep):
    """CSV rows of an ``oracle.ConvergenceReport``, exact rationals."""
    exact = "" if rep.exact_value is None else rat_str(rep.exact_value)
    rows = [("q", "m", "count", "f_value", "exact_value", "gap")]
    for s, g in zip(rep.samples, rep.gaps):
        rows.append((str(s.q), str(s.m), str(s.count), rat_str(s.f_value),
                     exact, "" if g is None else rat_str(g)))
    return rows


def _error_text(code, message) -> str:
    return json.dumps({"error": {"code": code, "message": message}}) + "\n"


# ---------------------------------------------------------------------------
# command handlers: each returns a JSON document of the values it computed,
# CSV rows or SVG text
# ---------------------------------------------------------------------------

def _function_artifact(f, args):
    if args.format == "csv":
        return function_csv_rows(f, args.samples)
    if args.format == "svg":
        return function_svg(f, args.samples, args.command)
    return pw_to_json(f)


def _cmd_density(pair, args):
    from . import analysis
    return _function_artifact(analysis.hkd_function(pair), args)


def _cmd_phi(pair, args):
    from . import analysis
    return _function_artifact(analysis.phi_function(pair, args.k), args)


def _cmd_ehk(pair, args):
    from . import analysis
    value = analysis.e_hk(pair, args.k)
    if args.k > 1:
        return {"k": args.k, "e_hk_power": value}
    return {"e_hk": value}


def _cmd_limit(pair, args):
    from . import analysis
    e0, phi_int, a = analysis.limit_values(pair)
    return {"e0": e0, "phi_integral": phi_int, "limit_A": a}


def _cmd_tiling(pair, args):
    from . import analysis
    tiles, gap = analysis.tiling_values(pair)
    return {"is_tiler": tiles, "B": _b_string(gap)}


def _cmd_report(pair, args):
    from . import analysis
    return report_to_json(analysis.hk_report(pair))


def _cmd_segre(pair, args):
    if not isinstance(pair, SegrePair):
        raise SpecParseError("'segre' command expects a {\"segre\": [...]} spec")
    return _cmd_report(pair, args)


def _cmd_oracle(pair, args):
    if args.q is None or args.lam is None:
        raise SpecParseError("'oracle' requires --q and --lambda")
    from . import oracle
    return _fields(oracle.f_n(pair, args.q, args.lam))


def _cmd_convergence(pair, args):
    if args.q is None or args.lam is None:
        raise SpecParseError("'convergence' requires --q (comma list) and --lambda")
    from . import oracle
    rep = oracle.convergence_report(pair, args.lam, args.q)
    if args.format == "csv":
        return convergence_csv_rows(rep)
    samples = [dict(_fields(s), gap=g) for s, g in zip(rep.samples, rep.gaps)]
    return {"lambda": rep.lam, "exact_value": rep.exact_value,
            "samples": samples, "max_gap_tail": rep.max_gap_tail}


# name -> (handler, output formats, the other flags the handler reads, help)
_COMMANDS = {
    "density": (_cmd_density, ("json", "csv", "svg"), ("--samples",),
                "the density function"),
    "phi": (_cmd_phi, ("json", "csv", "svg"), ("--samples", "--k"),
            "the defect function, of the k-th multiple"),
    "ehk": (_cmd_ehk, (), ("--k",), "e_HK, or its value for the k-th power"),
    "limit": (_cmd_limit, (), (), "e0, the integral of phi and limit_A"),
    "tiling": (_cmd_tiling, (), (), "the tiling test and its gap B"),
    "report": (_cmd_report, (), (), "every invariant in one JSON document"),
    "segre": (_cmd_segre, (), (), "report for a segre spec"),
    "oracle": (_cmd_oracle, (), ("--q", "--lambda"), "one lattice count"),
    "convergence": (_cmd_convergence, ("json", "csv"), ("--q", "--lambda"),
                    "lattice counts against the exact value"),
}


def _choice(value, choices):
    if value not in choices:
        raise ValueError(f"invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    return value


def _int(value, command):
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"invalid int value: {value!r}") from None


def _positive(flag, value, command):
    if value < 1:
        raise SpecParseError(f"{flag}: positive integer required")
    return value


def _levels(flag, text, command):
    # oracle takes one Frobenius level, convergence a comma list of them
    many = command == "convergence"
    try:
        values = [int(p) for p in (text.split(",") if many else [text])]
    except ValueError as exc:
        expected = "a comma list of integers" if many else "an integer"
        raise SpecParseError(f"--q: expected {expected}, got {text!r}") from exc
    if any(v < 1 for v in values):
        raise SpecParseError("--q: positive integers required")
    return values if many else values[0]


def _parameter(flag, text, command):
    try:
        lam = parse_rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"--lambda: expected 'p/q', got {text!r}") from exc
    if lam < 0:
        raise SpecParseError("--lambda: nonnegative rational required")
    return lam


# flag -> (dest, metavar, default, convert, check, help).  A value that
# ``convert`` rejects (None: any text) is a usage error, like an unknown flag;
# ``check`` reads the last value given, and what it rejects is a parse_error.
_FLAGS = {
    "--input": ("input", "FILE", "-", None, None,
                "pair spec JSON file, '-' for stdin"),
    "--output": ("output", "DIR", None, None, None,
                 "output directory (default: stdout)"),
    "--format": ("format", None, "json",
                 lambda value, command: _choice(value, _COMMANDS[command][1]),
                 None, "output format"),
    "--samples": ("samples", "N", 512, _int, _positive,
                  "sample count for csv/svg emission"),
    "--k": ("k", "N", 1, _int, _positive, "divisor multiple"),
    "--q": ("q", "Q", None, None, _levels,
            "Frobenius level (convergence: a comma list)"),
    "--lambda": ("lam", "P/Q", None, None, _parameter,
                 "parameter, an exact rational"),
}
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$").match  # a value, not a flag


class _UsageError(Exception):
    """Exit status 2: args are (command or None for the top level, message)."""


def _command_flags(command):
    _, formats, flags, _ = _COMMANDS[command]
    return ("--input", "--output") + ("--format",) * bool(formats) + flags


def _spelled(flag, command):
    metavar = _FLAGS[flag][1] or "{" + ",".join(_COMMANDS[command][1]) + "}"
    return f"{flag} {metavar}"


def _usage(command):
    if command is None:
        return f"usage: hkdensity [-h] {{{','.join(_COMMANDS)}}} ..."
    return " ".join([f"usage: hkdensity {command} [-h]"] + [
        f"[{_spelled(flag, command)}]" for flag in _command_flags(command)])


def _help(command):
    """Help text of the top level (command None) or of one command."""
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        about = ("Exact Hilbert-Kunz density functions, multiplicities and "
                 "tiling tests for toric pairs.")
        sections = {"commands": [(name, entry[3])
                                 for name, entry in _COMMANDS.items()]}
    else:
        about, sections = _COMMANDS[command][3], {}
        for flag in _command_flags(command):
            _, _, default, _, _, text = _FLAGS[flag]
            options.append((_spelled(flag, command), text if default is None
                            else f"{text} (default: {default})"))
    sections["options"] = options
    width = 2 + max(len(name) for rows in sections.values() for name, _ in rows)
    lines = [_usage(command), "", about]
    for title, rows in sections.items():
        lines += ["", f"{title}:"] + [f"  {name:<{width}}{text}" for name, text in rows]
    return "\n".join(lines) + "\n"


def _option(arg, flags, command):
    """Read ``arg`` as argparse does: None for a value or a positional, else
    (flag, value attached with '=' or None), flag None for an unknown option.
    A long flag may be shortened to a prefix that is unique among ``flags``."""
    if arg[:1] != "-" or arg in ("-", "--"):
        return None
    name, eq, value = arg.partition("=")
    value = value if eq else None
    if name in flags:
        return name, value
    # only a long flag is shortened; -hx is unknown (argparse 3.13 reads -h)
    matches = [f for f in flags if f.startswith(name)] if arg[1] == "-" else []
    if len(matches) > 1:
        raise _UsageError(command, f"ambiguous option: {arg} could match "
                                   f"{', '.join(matches)}")
    if matches:
        return matches[0], value
    return None if _NEGATIVE(arg) or " " in arg else (None, None)


def _parse(argv):
    """One pass over ``argv`` against the tables: the help text for -h or
    --help, else a namespace of the command and every flag's checked value.
    Raises _UsageError where argparse would exit 2 (the first failing
    argument wins; unrecognized ones are reported last) and SpecParseError
    for a value that its flag's check rejects."""
    argv = list(argv)
    command, end, given, extras = None, len(argv), {}, []
    kinds = [_option(arg, _HELP, None) for arg in argv]
    j = 0
    while j < len(argv):
        arg, kind, j = argv[j], kinds[j], j + 1
        if kind is None and command is None:
            try:
                command = _choice(arg, _COMMANDS)
            except ValueError as exc:
                raise _UsageError(None, f"argument command: {exc}") from None
            if "--" in argv[j:]:  # every argument after it is a positional
                end = argv.index("--", j)
            # read all before using any: an ambiguous prefix beats any error
            flags = _HELP + _command_flags(command)
            kinds[j:] = [_option(a, flags, command) if k < end else None
                         for k, a in enumerate(argv[j:], j)]
            continue
        flag, value = kind or (None, None)
        if flag is None:
            extras.append(arg)
            continue
        if flag in _HELP:
            if value is not None:
                raise _UsageError(command, "argument -h/--help: ignored "
                                           f"explicit argument {value!r}")
            return _help(command)
        if value is None:
            if j >= end or kinds[j] is not None:
                raise _UsageError(command, f"argument {flag}: expected one argument")
            value, j = argv[j], j + 1
        convert = _FLAGS[flag][3]
        try:
            given[flag] = convert(value, command) if convert else value
        except ValueError as exc:
            raise _UsageError(command, f"argument {flag}: {exc}") from None
    if command is None:
        raise _UsageError(None, "the following arguments are required: command")
    if extras:
        raise _UsageError(None, f"unrecognized arguments: {' '.join(extras)}")
    args = SimpleNamespace(command=command)
    for flag, (dest, _, default, _, check, _) in _FLAGS.items():
        value = given.get(flag, default)
        setattr(args, dest, check(flag, value, command)
                if check and flag in given else value)
    return args


def _read_input(name) -> str:
    if name == "-":
        return sys.stdin.read()
    from pathlib import Path
    try:
        return Path(name).read_text(encoding="utf-8")
    except OSError as exc:  # missing, a directory, or not readable
        raise SpecParseError(f"cannot read input file {name}: {exc.strerror}") from exc


def _write_output(args, text) -> str:
    """Write ``text`` to ``--output``'s ``DIR/<command>.<format>``: the path
    line to print in its place."""
    from pathlib import Path
    out_path = Path(args.output) / f"{args.command}.{args.format}"
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8")
    except OSError as exc:  # a file in the way, or not writable
        raise SpecParseError(f"cannot write output directory {args.output}: "
                             f"{exc.strerror}") from exc
    return f"{out_path}\n"


def _execute(argv, spec_text=None):
    """Parse ``argv``, read the spec (``spec_text``, else ``--input``) and run
    the command: (args, exit_status, text, extension).  This is where every
    answer is written: the text is the artifact, or with ``--output`` the
    line of the path it was written to.  An engine or argument error, an
    unwritable ``--output`` among them, is status 1 with an error JSON as
    the text.  A usage error is status 2 with a usage line and its message
    on stderr and no text; -h/--help is status 0 with the help text (args
    None for both)."""
    args = None
    try:
        args = _parse(argv)
        if isinstance(args, str):
            return None, 0, args, None
        if spec_text is None:
            spec_text = _read_input(args.input)
        answer = _COMMANDS[args.command][0](parse_spec(spec_text), args)
        if isinstance(answer, dict):  # indented when a value is a list or an object
            nested = any(isinstance(v, (list, dict)) for v in answer.values())
            # a Rat prints as "p/q"; Rat(value) raises TypeError on a value
            # that is not a number, so no object is printed by accident
            text = json.dumps(answer, indent=2 if nested else None,
                              default=rat_str) + "\n"
        else:  # CSV rows or SVG text
            text = _csv_text(answer) if isinstance(answer, list) else answer + "\n"
        if args.output is not None:
            text = _write_output(args, text)
        return args, 0, text, args.format
    except _UsageError as exc:
        command, message = exc.args
        prog = " ".join(filter(None, ("hkdensity", command)))
        sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
        return None, 2, "", None
    except EngineError as exc:
        code, message = exc.code, str(exc)
    except ValueError as exc:
        code, message = "invalid_argument", str(exc)
    return args, 1, _error_text(code, message), "json"


def run_command(command, spec_text, options=None) -> tuple:
    """Programmatic entry: returns (exit_status, text, extension), the status
    and text the command line would give for this spec."""
    _, status, text, ext = _execute([command] + list(options or []), spec_text)
    return status, text, ext


def main(argv=None) -> int:
    _, status, text, _ = _execute(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return status


def run():
    """Process entry (``python -m hkdensity.cli`` and the ``hkdensity``
    script): ``main``, then the exit callbacks, a flush of stdout and stderr,
    and ``os._exit``.  Once the artifact is written, a normal exit only frees
    every module and value one by one, about a tenth of a short command's
    time; ``os._exit`` skips that teardown.  Under a trace or profile function
    or a ``sys.monitoring`` tool (``python -m cProfile``, which registers as
    such a tool from Python 3.12, ``coverage run``) the process exits normally
    so that the tool reports, and so it does when a flush fails (stdout a
    closed pipe), which keeps that case's status and message."""
    import atexit
    import os
    status = main()
    monitoring = getattr(sys, "monitoring", None)
    tools = monitoring is not None and any(
        monitoring.get_tool(i) is not None for i in range(6))
    if sys.gettrace() is None and sys.getprofile() is None and not tools:
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except OSError:
            pass
        else:
            os._exit(status)
    sys.exit(status)


if __name__ == "__main__":  # pragma: no cover
    run()
