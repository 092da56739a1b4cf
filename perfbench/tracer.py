"""Traced CLI call: ``python perfbench/tracer.py SPANS_OUT <hkdensity argv>``.

Imports ``hkdensity.cli``, wraps the public functions of every package
module from outside, then runs ``hkdensity.cli.main`` on the remaining
arguments.  A wrapper is installed wherever callers look the function up:
in its own module and under every name another package module bound it to
with ``from ... import``.  Span totals stay in memory and are written once,
as JSON, to SPANS_OUT when ``main`` returns; stdout stays the CLI's.

A layer's self time is the time inside its spans minus the time of the
child spans they cover.  Keys written: ``<layer>.self_s``,
``<layer>.calls``, ``<layer>.errors`` (exceptions leaving a span of the
layer), ``<layer>.<function>.calls``, ``regions.pieces`` (pieces returned by
``family_volume_function``), and ``cli.import.self_s``.
"""

import time

_IMPORT_START = time.perf_counter()

import hkdensity.cli as cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _IMPORT_START

import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

from hkdensity import analysis, geometry, oracle, piecewise, rationals, regions  # noqa: E402

PACKAGE_MODULES = [cli, analysis, geometry, oracle, piecewise, rationals, regions]

# Vector helpers that regions calls about a million times per surface: a
# wrapper costs about as much as their body, so their time stays with the
# caller and geometry's boundary is the polytope-level functions.
UNTRACED = {"dot", "vadd", "vsub", "vscale"}


class Tracer:
    def __init__(self):
        self.totals = {"cli.import.self_s": _IMPORT_S, "cli.import.calls": 1}
        self._children = []  # child-span time of each open span, innermost last

    def add(self, key, value):
        self.totals[key] = self.totals.get(key, 0) + value

    def wrap(self, fn, layer, name):
        clock = time.perf_counter
        children = self._children
        add = self.add

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                add(f"{layer}.errors", 1)
                raise
            finally:
                span = clock() - start
                add(f"{layer}.self_s", span - children.pop())
                if children:
                    children[-1] += span
                add(f"{layer}.calls", 1)
                add(f"{layer}.{name}.calls", 1)
            if name == "family_volume_function":
                add("regions.pieces", len(result.pieces))
            return result

        return traced

    def install(self, module, name, layer):
        """Wrap ``module.name`` and rebind every package-module name that
        refers to the same function object."""
        original = getattr(module, name)
        wrapped = self.wrap(original, layer, name)
        for mod in PACKAGE_MODULES:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def install_method(self, cls, name, layer):
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            setattr(cls, name, staticmethod(
                self.wrap(raw.__func__, layer, f"{cls.__name__}.{name}")))
        else:
            setattr(cls, name, self.wrap(raw, layer, f"{cls.__name__}.{name}"))


def public_functions(module):
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def install_all(tracer):
    # cli's own emission bindings first: pw_to_json as cli calls it belongs
    # to emission, as bound in piecewise it belongs to piecewise.
    for name in ("report_to_json", "function_csv_rows", "function_svg",
                 "_csv_text"):
        tracer.install(cli, name, "cli.emit")
    cli.pw_to_json = tracer.wrap(cli.pw_to_json, "cli.emit", "pw_to_json")
    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(vars(json))
    json_proxy.dumps = tracer.wrap(json.dumps, "cli.emit", "json.dumps")
    cli.json = json_proxy
    tracer.install(cli, "parse_spec", "cli.parse")

    for name in ("parse_rat", "rat_str"):
        tracer.install(rationals, name, "rationals")
    for module, layer in ((analysis, "analysis"), (regions, "regions"),
                          (geometry, "geometry"), (oracle, "oracle"),
                          (piecewise, "piecewise")):
        for name in public_functions(module):
            if name not in UNTRACED:
                tracer.install(module, name, layer)
    for name in ("from_vertices", "from_fan", "scaled"):
        tracer.install_method(analysis.ToricPair, name, "analysis")
    for name in ("build", "__call__", "integral"):
        tracer.install_method(piecewise.PiecewisePoly, name, "piecewise")


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_all(tracer)
    try:
        status = cli.main(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.totals, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
