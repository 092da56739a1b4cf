"""Workload definitions and the seeded input images.

An op is one CLI call: ``python -m hkdensity.cli <command> <args...>`` with
a JSON pair spec on stdin.  Every output the CLI prints is a lattice
invariant of the pair, so a seed may replace each spec by an image under a
signed permutation of the coordinates plus an integer translation and the
expected stdout stays the same byte for byte.

The engine's cost is not invariant: on hirzebruch surfaces, swapping the
two coordinates cuts the work by about a fifth.  So every op whose base has
a factor of dimension 2 or more also runs on the mirror image of its seeded
input (coordinates reversed), and the cost of a pass does not depend on
which of the 8 planar images the seed picked.
"""

from __future__ import annotations

import itertools
import json
import random


def fan(rays, coeffs):
    return {"rays": [list(r) for r in rays], "coeffs": list(coeffs)}


def verts(*points):
    return {"vertices": [list(p) for p in points]}


def segre(*specs):
    return {"segre": list(specs)}


def line(n):
    return verts((0,), (n,))


def hirzebruch(a, c, d):
    return fan([(1, 0), (0, 1), (-1, a), (0, -1)], [c, 0, 0, d])


PLANE = fan([(1, 0), (0, 1), (-1, -1)], [1, 1, 1])
QUADRIC = fan([(1, 0), (-1, 0), (0, 1), (0, -1)], [1, 1, 1, 1])
BLOWUP3 = fan([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)], [1] * 6)
HEXAGON = verts((2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1))
UNIT_SQUARE = verts((0, 0), (1, 0), (0, 1), (1, 1))
SIMPLEX = verts((0, 0), (1, 0), (0, 1))
CUBE = segre(line(1), line(1), line(1))

DENSITY_CSV = ["density", "--format", "csv"]
DENSITY_SVG = ["density", "--format", "svg"]
EHK_K3 = ["ehk", "--k", "3"]


def _cli_small_ops():
    # lines keep the engine's share small; two cheap planar calls and a
    # product cover the 2D parsing and emission paths
    ops = [(f"{name}:line{n}", argv, line(n)) for n in (2, 3, 5)
           for name, argv in (
               ("density-csv", DENSITY_CSV), ("density-svg", DENSITY_SVG),
               ("phi", ["phi"]), ("ehk-k3", EHK_K3), ("limit", ["limit"]),
               ("tiling", ["tiling"]), ("report", ["report"]))]
    ops += [("density-svg:square", DENSITY_SVG, UNIT_SQUARE),
            ("density-csv:simplex", DENSITY_CSV, SIMPLEX),
            ("segre:line1xline2", ["segre"], segre(line(1), line(2)))]
    return ops


# name -> list of (op id, CLI argv, pair spec).  Each workload's ops,
# mirror images included, take about 8 s in sequence on the reference
# machine.  An odd number of distinct inputs keeps the median op latency
# inside one input's cluster of samples rather than in the gap between two.
WORKLOADS = {
    # area sampling (_FamilyEvaluator.area) dominates the density tail
    "surfaces": [
        ("density-csv:hirz121", DENSITY_CSV, hirzebruch(1, 2, 1)),
        ("density-csv:hirz112", DENSITY_CSV, hirzebruch(1, 1, 2)),
        ("density-csv:plane", DENSITY_CSV, PLANE),
    ],
    # event generation (_pair_events/_triple_events) dominates
    "multiples": [
        ("ehk-k2:square", ["ehk", "--k", "2"], UNIT_SQUARE),
        ("tiling:quadric", ["tiling"], QUADRIC),
        ("phi:blowup3", ["phi"], BLOWUP3),
    ],
    # numpy lattice scans; family_volume_function is never called
    "oracle": [
        ("oracle-q96:cube", ["oracle", "--q", "96", "--lambda", "3/2"], CUBE),
        ("convergence:cube",
         ["convergence", "--q", "16,32,64", "--lambda", "3/2",
          "--format", "csv"], CUBE),
        ("oracle-q64:simplex-x-line2",
         ["oracle", "--q", "64", "--lambda", "3/2"],
         segre(SIMPLEX, line(2))),
        ("oracle-q192:hexagon", ["oracle", "--q", "192", "--lambda", "3/2"],
         HEXAGON),
    ],
    "cli_small": _cli_small_ops(),
}


def _signed_permutations(dim):
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim):
            yield perm, signs


def _apply(g, x):
    perm, signs = g
    return [signs[i] * x[perm[i]] for i in range(len(perm))]


def image(spec, rng):
    """Image of a pair spec under a random signed permutation g plus a
    translation t in [-3, 3]^dim.  Fan specs stay fan specs: g is
    orthogonal, so the rays map by g and coefficient i drops by <t, g r_i>.
    Each Segre factor is mapped on its own."""
    if "segre" in spec:
        return segre(*[image(s, rng) for s in spec["segre"]])
    key = "vertices" if "vertices" in spec else "rays"
    dim = len(spec[key][0])
    g = rng.choice(list(_signed_permutations(dim)))
    t = [rng.randint(-3, 3) for _ in range(dim)]
    if key == "vertices":
        return verts(*[[a + b for a, b in zip(_apply(g, v), t)]
                       for v in spec["vertices"]])
    rays = [_apply(g, r) for r in spec["rays"]]
    coeffs = [c - sum(a * b for a, b in zip(t, r))
              for c, r in zip(spec["coeffs"], rays)]
    return fan(rays, coeffs)


def _base_dims(spec):
    if "segre" in spec:
        return [d for s in spec["segre"] for d in _base_dims(s)]
    return [len(spec.get("vertices", spec.get("rays"))[0])]


def mirror(spec):
    """Image with the coordinates of every factor in reverse order."""
    if "segre" in spec:
        return segre(*[mirror(s) for s in spec["segre"]])
    if "vertices" in spec:
        return verts(*[v[::-1] for v in spec["vertices"]])
    return fan([r[::-1] for r in spec["rays"]], spec["coeffs"])


MIRROR_SUFFIX = "+mirror"


def expected_key(op_id):
    """The op id whose recorded output a (possibly mirrored) op must print."""
    return op_id.removesuffix(MIRROR_SUFFIX)


def seeded_ops(workload, seed):
    """The workload's ops as (op id, argv, spec JSON text) for this seed,
    each op with a planar factor followed by its mirror image."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for op_id, argv, spec in WORKLOADS[workload]:
        seeded = image(spec, rng)
        ops.append((op_id, argv, json.dumps(seeded)))
        if max(_base_dims(spec)) >= 2:
            ops.append((op_id + MIRROR_SUFFIX, argv, json.dumps(mirror(seeded))))
    return ops
