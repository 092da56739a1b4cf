"""Command-line interface: spec parsing, dispatch, and emission.

Input is a JSON pair spec in one of three forms:

    {"vertices": [[0], [2]]}
    {"rays": [[1,0],[0,1],[-1,-1]], "coeffs": [1,1,1]}
    {"segre": [SPEC, SPEC, ...]}

Any other key, at any nesting level, is a parse error.

Rationals serialize as strings "p/q" everywhere (JSON and CSV are
bit-exact); SVG is the only lossy output and is presentation-only.  Every
engine failure exits nonzero with a machine-readable error JSON carrying a
stable code.

Only the layers a command runs are imported: spec parsing needs the pair
types alone, and each handler loads ``analysis`` or ``oracle`` itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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
            [_int_list(p, f"{path}.vertices") for p in pts])
    if form == "rays":
        rays = data.get("rays")
        coeffs = data.get("coeffs")
        if not isinstance(rays, list) or not rays:
            raise SpecParseError(f"{path}.rays: expected a nonempty list")
        if not isinstance(coeffs, list) or len(coeffs) != len(rays):
            raise SpecParseError(f"{path}.coeffs: one integer per ray required")
        return ToricPair.from_fan(
            [_int_list(r, f"{path}.rays") for r in rays],
            _int_list(coeffs, f"{path}.coeffs"))
    subs = data["segre"]
    if not isinstance(subs, list) or len(subs) < 2:
        raise SpecParseError(f"{path}.segre: expected a list of >= 2 specs")
    return segre(*[
        _pair_from_data(s, f"{path}.segre[{i}]") for i, s in enumerate(subs)])


def parse_spec(text: str):
    """Parse a JSON pair spec into a ToricPair or SegrePair."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
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


def report_to_json(rep) -> dict:
    """JSON document of an ``analysis.HKReport``."""
    return {
        "d": rep.d,
        "l": rep.l,
        "e0": rat_str(rep.e0),
        "h0": rep.h0,
        "hkd": None if rep.hkd is None else pw_to_json(rep.hkd),
        "e_hk": None if rep.e_hk is None else rat_str(rep.e_hk),
        "phi": pw_to_json(rep.phi),
        "phi_integral": rat_str(rep.phi_integral),
        "limit_A": rat_str(rep.limit_A),
        "tiling_gap_B": _b_string(rep.tiling_gap_B),
        "is_tiler": rep.is_tiler,
    }


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
    end = float(f.breakpoints[-1]) or 1.0
    p, q, values = _sample_grid(f, samples)
    # int / int is correctly rounded, so each float equals float(Fraction)
    xs = [p * i / q for i in range(samples + 1)]
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
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _function_artifact(f, args, title):
    if args.format == "json":
        return json.dumps(pw_to_json(f), indent=2) + "\n", "json"
    if args.format == "csv":
        return _csv_text(function_csv_rows(f, args.samples)), "csv"
    return function_svg(f, args.samples, title) + "\n", "svg"


def _cmd_density(pair, args):
    from . import analysis
    return _function_artifact(analysis.hkd_function(pair), args, "density")


def _cmd_phi(pair, args):
    from . import analysis
    f = analysis.phi_scaled(pair, args.k) if args.k > 1 else analysis.phi_function(pair)
    return _function_artifact(f, args, "phi")


def _cmd_ehk(pair, args):
    from . import analysis
    if args.k > 1:
        value = analysis.ehk_power(pair, args.k)
        return json.dumps({"k": args.k, "e_hk_power": rat_str(value)}) + "\n", "json"
    return json.dumps({"e_hk": rat_str(analysis.e_hk(pair))}) + "\n", "json"


def _cmd_limit(pair, args):
    from . import analysis
    return json.dumps({
        "e0": rat_str(analysis.e0(pair)),
        "phi_integral": rat_str(analysis.phi_integral(pair)),
        "limit_A": rat_str(analysis.limit_A(pair)),
    }) + "\n", "json"


def _cmd_tiling(pair, args):
    from . import analysis
    return json.dumps({
        "is_tiler": analysis.is_tiler(pair),
        "B": _b_string(analysis.tiling_gap_B(pair)),
    }) + "\n", "json"


def _cmd_report(pair, args):
    from . import analysis
    rep = analysis.hk_report(pair)
    return json.dumps(report_to_json(rep), indent=2) + "\n", "json"


def _cmd_segre(pair, args):
    if not isinstance(pair, SegrePair):
        raise SpecParseError("'segre' command expects a {\"segre\": [...]} spec")
    return _cmd_report(pair, args)


def _cmd_oracle(pair, args):
    if args.q is None or args.lam is None:
        raise SpecParseError("'oracle' requires --q and --lambda")
    from . import oracle
    sample = oracle.f_n(pair, args.q, args.lam)
    return json.dumps({
        "q": sample.q,
        "m": sample.m,
        "count": sample.count,
        "f_value": rat_str(sample.f_value),
    }) + "\n", "json"


def _cmd_convergence(pair, args):
    if args.q is None or args.lam is None:
        raise SpecParseError("'convergence' requires --q (comma list) and --lambda")
    from . import oracle
    rep = oracle.convergence_report(pair, args.lam, args.q)
    if args.format == "json":
        return json.dumps({
            "lambda": rat_str(rep.lam),
            "exact_value": None if rep.exact_value is None else rat_str(rep.exact_value),
            "samples": [{
                "q": s.q, "m": s.m, "count": s.count,
                "f_value": rat_str(s.f_value),
                "gap": None if g is None else rat_str(g),
            } for s, g in zip(rep.samples, rep.gaps)],
            "max_gap_tail": None if rep.max_gap_tail is None else rat_str(rep.max_gap_tail),
        }, indent=2) + "\n", "json"
    return _csv_text(rep.csv_rows()), "csv"


# name -> (handler, output formats, the other flags the handler reads)
_COMMANDS = {
    "density": (_cmd_density, ("json", "csv", "svg"), ("--samples",)),
    "phi": (_cmd_phi, ("json", "csv", "svg"), ("--samples", "--k")),
    "ehk": (_cmd_ehk, (), ("--k",)),
    "limit": (_cmd_limit, (), ()),
    "tiling": (_cmd_tiling, (), ()),
    "report": (_cmd_report, (), ()),
    "segre": (_cmd_segre, (), ()),
    "oracle": (_cmd_oracle, (), ("--q", "--lambda")),
    "convergence": (_cmd_convergence, ("json", "csv"), ("--q", "--lambda")),
}

_FLAGS = {
    "--samples": {"dest": "samples", "type": int, "default": 512,
                  "help": "sample count for csv/svg emission"},
    "--q": {"dest": "q_raw", "default": None,
            "help": "Frobenius level (oracle) or comma list (convergence)"},
    "--lambda": {"dest": "lam_raw", "default": None,
                 "help": "parameter as an exact rational 'p/q'"},
    "--k": {"dest": "k", "type": int, "default": 1,
            "help": "divisor multiple (phi scaling / ehk power)"},
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hkdensity",
        description="Exact Hilbert-Kunz density functions, multiplicities and "
                    "tiling tests for toric pairs.")
    # a command that does not take a flag still reads its default
    parser.set_defaults(**{f["dest"]: f["default"] for f in _FLAGS.values()})
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, formats, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", default="-",
                       help="pair spec JSON file ('-' for stdin)")
        p.add_argument("--output", default=None,
                       help="output directory (default: stdout)")
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _post_process_args(args):
    # oracle takes one Frobenius level, convergence a comma list of them
    args.q = None
    if args.q_raw is not None:
        many = args.command == "convergence"
        parts = str(args.q_raw).split(",") if many else [args.q_raw]
        try:
            values = [int(p) for p in parts if p]
        except ValueError as exc:
            expected = "a comma list of integers" if many else "an integer"
            raise SpecParseError(
                f"--q: expected {expected}, got {args.q_raw!r}") from exc
        if not values or any(v < 1 for v in values):
            raise SpecParseError("--q: positive integers required")
        args.q = values if many else values[0]
    args.lam = None
    if args.lam_raw is not None:
        try:
            args.lam = parse_rat(args.lam_raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecParseError(f"--lambda: expected 'p/q', got {args.lam_raw!r}") from exc
        if args.lam < 0:
            raise SpecParseError("--lambda: nonnegative rational required")
    if args.samples < 1:
        raise SpecParseError("--samples: positive integer required")
    if args.k < 1:
        raise SpecParseError("--k: positive integer required")
    return args


def _read_input(name) -> str:
    if name == "-":
        return sys.stdin.read()
    path = Path(name)
    if not path.exists():
        raise SpecParseError(f"input file not found: {path}")
    return path.read_text(encoding="utf-8")


def _execute(argv, spec_text=None):
    """Parse ``argv``, read the spec (``spec_text``, else ``--input``) and run
    the command: (args, exit_status, artifact_text, extension).  An engine or
    argument error is status 1 with an error JSON as the artifact; a usage
    error is argparse's status 2 with its message on stderr and no artifact
    (args None)."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has written its usage or --help
        return None, exc.code, "", None
    try:
        args = _post_process_args(args)
        if spec_text is None:
            spec_text = _read_input(args.input)
        text, ext = _COMMANDS[args.command][0](parse_spec(spec_text), args)
        return args, 0, text, ext
    except EngineError as exc:
        code, message = exc.code, str(exc)
    except ValueError as exc:
        code, message = "invalid_argument", str(exc)
    error = {"error": {"code": code, "message": message}}
    return args, 1, json.dumps(error) + "\n", "json"


def run_command(command, spec_text, options=None) -> tuple:
    """Programmatic entry: returns (exit_status, artifact_text, extension),
    the status and text the command line would give for this spec."""
    _, status, text, ext = _execute([command] + list(options or []), spec_text)
    return status, text, ext


def main(argv=None) -> int:
    args, status, text, ext = _execute(argv)
    if args is None or status or args.output is None:
        sys.stdout.write(text)
    else:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / f"{args.command}.{ext}"
        out_path.write_text(text, encoding="utf-8")
        print(str(out_path))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
