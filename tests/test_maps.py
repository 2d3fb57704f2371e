import copy
import dataclasses
import gc
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamecube.cubes import Box, CubicalComplex, Face, boundary_complex, box_grid, complex_grid
from tamecube.errors import DimensionError, DomainError, ParseError
from tamecube.genmaps import random_map_admissible_on, random_smooth_map, random_tame_map
from tamecube.kernels import SmashParams, gamma_many
from tamecube.maps import (
    _ATOMS,
    _EVAL_ROWS,
    _HEADS,
    _NODES,
    Affine,
    Compose,
    Const,
    Coord,
    Gamma,
    Lambda,
    PiecewiseAxis,
    Product,
    Smash,
    SmashDyn,
    SmoothMap,
    Sum,
    TupleMap,
    add,
    affine_row,
    compose,
    const,
    constant_homotopy,
    coord,
    lambda_map,
    mul,
    parse_map,
    piecewise,
    recip_map,
    serialize_map,
    smash_map,
    smashdyn_map,
    tup,
)
from tamecube.replace import admissible_replace
from tamecube.retract import RetractionParams, approx_retraction, deformation_retraction_homotopy
from tamecube.tame import (
    ToleranceConfig,
    concat_homotopy,
    concat_maps,
    extend_tame,
    extend_to_jdelta,
    tame_replace,
)


def test_eval_const_ignores_point():
    f = Const((3.0,), 2)
    assert f.eval((0.2, 0.7))[0] == 3.0


def test_eval_lambda_of_coord():
    f = parse_map("(lambda (coord 1))")
    assert f.in_dim == 1
    assert f.eval([0.5])[0] == pytest.approx(0.5, abs=1e-15)


def test_eval_coordwise_smash():
    p = SmashParams(0.1, 0.25)
    f = tup(smash_map(p, coord(1, 2)), smash_map(p, coord(2, 2)))
    out = f.eval([0.5, 0.05])
    assert tuple(out) == (0.5, 0.0)


def test_eval_dimension_mismatch():
    f = parse_map("(lambda (coord 1))")
    with pytest.raises(DimensionError):
        f.eval([0.5, 0.5])


CORNERS_2 = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])

# (name, map, its exact values at the corners of its cube)
ON_THE_CUBE = [
    ("parsed", lambda: parse_map("(sum (coord 1) (coord 2))"), [[0.0], [1.0], [1.0], [2.0]]),
    ("built", lambda: tup(coord(2, 2), lambda_map(coord(1, 2))), CORNERS_2[:, ::-1]),
    ("retraction", lambda: approx_retraction(RetractionParams.from_eps(2, 0.25)), CORNERS_2),
    ("slice", lambda: deformation_retraction_homotopy(2, 0.3).slice(1.0), CORNERS_2),
    ("coord", lambda: Coord(1, 1), [[0.0], [1.0]]),
    ("on_unit_box", lambda: Coord(1, 1).on_unit_box(), [[0.0], [1.0]]),
]


@pytest.mark.parametrize("make,corners", [c[1:] for c in ON_THE_CUBE], ids=[c[0] for c in ON_THE_CUBE])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_map_rejects_a_non_finite_point(make, corners, bad):
    f = make()
    n = f.in_dim
    X = CORNERS_2 if n == 2 else np.array([[0.0], [1.0]])
    assert f.eval_many(X).tolist() == np.asarray(corners).tolist()
    point = (0.5,) * (n - 1) + (bad,)
    # the error names the first non-finite point
    with pytest.raises(DomainError, match=re.escape(f"point {point} is not finite")):
        f.eval_many([(1.0,) * n, point, (math.nan,) * n])
    with pytest.raises(DomainError):
        f.eval(point)


def test_eval_many_rejects_a_non_finite_value():
    # 1e308 * (1 + t) overflows to +inf for t > 0.8, and inf * 0 is NaN;
    # the error names the first such point, in a later slice of a large call
    big = affine_row(1, {1: 1e308}, 1e308)
    X = np.full((2 * _EVAL_ROWS, 1), 0.5)
    X[_EVAL_ROWS + 7], X[-1] = 0.9, 1.0
    for f in (big, mul(big, const(0.0, 1)), tup(coord(1, 1), big)):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match=re.escape("value at point (0.9,) is not finite")):
                f.eval_many(X)
            assert f.eval_many(X[:_EVAL_ROWS]).shape == (_EVAL_ROWS, f.out_dim)


@pytest.mark.parametrize("make", [c[1] for c in ON_THE_CUBE], ids=[c[0] for c in ON_THE_CUBE])
@pytest.mark.parametrize("off", [1.0 + 1e-13, -1e-300, 2.0])
def test_equal_trees_evaluate_alike_off_the_cube(make, off):
    # no node carries a box: a point off the cube is neither clipped nor
    # refused, and equal trees give the same bits on it
    f, g = make(), make().on_unit_box()
    assert f == g
    X = np.array([(0.5,) * (f.in_dim - 1) + (off,), (off,) * f.in_dim])
    out = f.eval_many(X)
    assert np.isfinite(out).all()
    assert out.tobytes() == g.eval_many(X).tobytes()
    assert Coord(1, 1).eval_many(X[:, -1:]).tolist() == X[:, -1:].tolist()


def test_compose_dim_check():
    with pytest.raises(DimensionError):
        Compose(Gamma(), tup(coord(1, 1), coord(1, 1)))


def test_product_broadcasting():
    f = mul(const(2.0, 2), tup(coord(1, 2), coord(2, 2)))
    assert tuple(f.eval([0.25, 0.5])) == (0.5, 1.0)


def test_associativity_of_compose_values():
    rng = np.random.default_rng(3)
    f = random_smooth_map(rng, 2)
    g = tup(lambda_map(coord(1, 2)), lambda_map(coord(2, 2)))
    h = tup(coord(2, 2), coord(1, 2))
    left = Compose(Compose(f, g), h)
    right = Compose(f, Compose(g, h))
    pts = rng.uniform(size=(100, 2))
    assert np.array_equal(left.eval_many(pts), right.eval_many(pts))


def test_projection_node():
    f = Compose(Coord(2, 3), tup(coord(1, 2), lambda_map(coord(2, 2)), const(5.0, 2)))
    assert f.eval([0.3, 0.5])[0] == pytest.approx(0.5, abs=1e-15)


def test_project_form_reads_as_coord():
    f = parse_map("(project 2)")
    assert f == parse_map("(coord 2)") == Coord(2, 2)
    assert serialize_map(f) == "(coord 2)"


def test_deep_sum_chain_builds():
    # interning keys a node on its children's identities, so building a
    # level costs O(1) and no Python frame, and the same chain is one object
    x = coord(1, 1)
    wraps = [add, mul, tup, lambda f: piecewise(1, [0.5], [f, x]), lambda_map]
    for wrap in wraps:
        chains = []
        for _ in range(2):
            f = x
            try:
                for _ in range(5000):
                    f = wrap(f)
            except RecursionError:  # caught here: a 5,000-frame traceback is slow to report
                f = None
            assert f is not None, "building used a Python frame per nesting level"
            chains.append(f)
        assert chains[0] is chains[1] and chains[0].in_dim == chains[0].out_dim == 1


def test_deep_trees_evaluate_and_serialize():
    # only parse_map uses a frame per nesting level: 900-deep chains stay
    # under the default recursion limit
    x = coord(1, 1)
    wraps = {
        "sum": lambda f: add(f, const(1.0, 1)),
        "prod": lambda f: mul(f, const(1.0, 1)),
        "piece": lambda f: piecewise(1, [0.5], [f, x]),
        "lambda": lambda_map,
    }
    pts = np.array([[0.25], [0.75]])
    expected = {"sum": [900.25, 900.75], "prod": [0.25, 0.75], "piece": [0.25, 0.75]}
    for name, wrap in wraps.items():
        f = x
        for _ in range(900):
            f = wrap(f)
        out = f.eval_many(pts)
        assert out.shape == (2, 1) and np.all(np.isfinite(out))
        if name in expected:
            assert out[:, 0].tolist() == expected[name]
        text = serialize_map(f)
        back = parse_map(text)
        assert serialize_map(back) == text
        assert back is f
        assert parse_map(text.replace("(coord 1)", "(const 2.0)", 1)) != f


def _replacement(n: int):
    L = CubicalComplex(n, (Face(n, ((1, 0),)),))
    f = random_map_admissible_on(np.random.default_rng([0, n]), n, L, 0.2)
    return admissible_replace(f, boundary_complex(n), L, 0.2, ToleranceConfig(grid_res=9))


def test_eval_rows_independent_of_batch():
    # the collar scan evaluates each distinct point once in a stacked batch,
    # so a row's value must not depend on the batch it sits in
    rng = np.random.default_rng(3)
    trees = [Affine(rng.uniform(-2.0, 2.0, (7, 4)), rng.uniform(-1.0, 1.0, 7))]
    trees += [_replacement(n)[0] for n in (2, 3)]
    trees.append(deformation_retraction_homotopy(3, 0.3).map)
    trees.append(approx_retraction(RetractionParams.from_eps(3, 0.2)))
    for f in trees:
        X = rng.uniform(size=(600, f.in_dim))
        whole = f.eval_many(X)
        for step in (1, 3, 17):
            parts = np.concatenate([f.eval_many(X[i : i + step]) for i in range(0, 51, step)])
            assert parts.tobytes() == whole[: len(parts)].tobytes()
        perm = rng.permutation(len(X))
        assert f.eval_many(X[perm]).tobytes() == whole[perm].tobytes()


def _reference_eval(f, X):
    """The recursive evaluator that ``eval_many`` replaced: every path through
    the tree is evaluated on its own, one frame per nesting level."""
    if isinstance(f, Sum):
        acc = np.zeros((len(X), f.out_dim))
        for c in f.children:
            acc = acc + _reference_eval(c, X)
        return acc
    if isinstance(f, Product):
        acc = np.ones((len(X), f.out_dim))
        for c in f.children:
            acc = acc * _reference_eval(c, X)
        return acc
    if isinstance(f, Compose):
        return _reference_eval(f.outer, _reference_eval(f.inner, X))
    if isinstance(f, TupleMap):
        return np.concatenate([_reference_eval(c, X) for c in f.children], axis=1)
    if isinstance(f, PiecewiseAxis):
        idx = np.searchsorted(np.array(f.breakpoints), X[:, f.axis - 1], side="right")
        out = np.empty((len(X), f.out_dim))
        for i, piece in enumerate(f.pieces):
            mask = idx == i
            if np.any(mask):
                out[mask] = _reference_eval(piece, X[mask])
        return out
    return f._apply(X)


def _shared_trees():
    """Hand-built trees that reach one node object along several paths."""
    x, y = coord(1, 2), coord(2, 2)
    f = add(lambda_map(coord(1, 1)), const(0.25, 1))
    h = Lambda()
    inner = tup(Compose(h, x), Compose(h, y))
    outer = add(Compose(h, coord(1, 2)), mul(coord(2, 2), Compose(h, coord(1, 2))))
    u = lambda_map(x)
    g = tup(u, add(u, y))
    shared = add(u, mul(u, y))
    deep = x
    for _ in range(10):
        deep = add(deep, deep)
    return [
        Compose(f, f),
        Compose(f, Compose(f, f)),
        Compose(outer, inner),
        piecewise(1, (0.3, 0.6), (g, g, g)),
        piecewise(2, (0.5,), (shared, piecewise(1, (0.4,), (shared, u)))),
        tup(u, y, u, u),
        smashdyn_map(u, compose(Affine(((0.1,),), (0.05,)), u), compose(Affine(((0.2,),), (0.3,)), u)),
        add(Compose(f, lambda_map(x)), Compose(f, u)),
        deep,
    ]


def test_eval_matches_reference_recursion_bit_for_bit():
    mid = ToleranceConfig(grid_res=17)
    trees = []
    for n in (2, 3):
        g, H, _ = _replacement(n)
        trees += [g, H.map]
    trees.append(deformation_retraction_homotopy(3, 0.3).map)
    trees.append(approx_retraction(RetractionParams.from_eps(4, 0.2)))
    f = random_tame_map(np.random.default_rng(1), 2, 0.25, space_eps=0.375)
    trees.append(extend_tame(f, eps=0.25, sigma=0.1, cfg=mid))
    g, H = tame_replace(random_tame_map(np.random.default_rng(0), 2, 0.25), 0.1, 0.25)
    trees.append(concat_homotopy(H, constant_homotopy(g)).map)
    trees += [_random_tree(seed) for seed in range(40)]
    trees += _shared_trees()
    rng = np.random.default_rng(5)
    for f in trees:
        X = rng.uniform(size=(400, f.in_dim))
        assert f.eval_many(X).tobytes() == _reference_eval(f, X).tobytes()


def test_domain_errors_raise_inside_shared_trees():
    r = recip_map(coord(1, 1))
    f = add(r, Compose(lambda_map(coord(1, 1)), r), tup(r))
    assert np.all(np.isfinite(f.eval_many([[0.5], [1.0]])))
    with pytest.raises(DomainError, match="recip requires strictly positive input"):
        f.eval_many([[0.5], [0.0]])
    u = lambda_map(coord(1, 1))
    # tau = 0.4 - 0.3 u falls below sigma = 0.2 where u > 2/3
    bad = smashdyn_map(u, const(0.2, 1), compose(Affine(((-0.3,),), (0.4,)), u))
    g = add(bad, tup(u), Compose(bad, u))
    assert np.all(np.isfinite(g.eval_many([[0.1], [0.2]])))
    with pytest.raises(DomainError, match="smash parameter schedule out of range"):
        g.eval_many([[0.1], [0.9]])


def test_kernel_calls_per_evaluation(monkeypatch):
    # the n = 3 replacement reaches its base map's nodes along many paths and
    # one Lambda() at many composition stages.  Interned, it holds 9 kernel
    # objects.  Each evaluation round runs every waiting node of the greatest
    # height, so a shared node waits for all its askers above it and
    # evaluates again only on the rows of a later composition stage: 30
    # calls, against 43 when a node waited for one message per sender and
    # 137 when each copy was its own object and was called once
    g = _replacement(3)[0]
    calls = {}
    for cls in (Smash, Lambda, SmashDyn):

        def counted(self, X, apply=cls._apply):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return apply(self, X)

        monkeypatch.setattr(cls, "_apply", counted)
    pts = complex_grid(boundary_complex(3), 33)
    assert len(pts) == 6146
    g.eval_many(pts)
    assert len(calls) == 9 and sum(calls.values()) == 30 < 137


def test_doubly_shared_chain_visits_each_level_once(monkeypatch):
    x = coord(1, 1)
    f = add(x, x)
    for _ in range(60):
        f = add(f, f)
    visits = []
    steps = Sum._steps
    monkeypatch.setattr(Sum, "_steps", lambda self, X: visits.append(self) or steps(self, X))
    assert f._height == 61
    out = f.eval_many([[0.75], [1.0]])
    assert out[:, 0].tolist() == [0.75 * 2.0**61, 1.0 * 2.0**61]
    assert len(visits) == len({id(v) for v in visits}) == 61


def test_deep_chain_evaluates_without_a_frame_per_level():
    f = coord(1, 1)
    try:
        for _ in range(5000):
            f = lambda_map(f)
    except RecursionError:
        f = None
    assert f is not None, "building a node used a Python frame per nesting level"
    assert f._height == 5000
    try:
        out = f.eval_many([[0.25], [0.5], [1.0]])
    except RecursionError:  # caught here: a 5,000-frame traceback is slow to report
        out = None
    assert out is not None, "evaluation used a Python frame per nesting level"
    assert out.shape == (3, 1) and np.all((out >= 0.0) & (out <= 1.0))
    try:
        text, r = serialize_map(f), repr(f)
    except RecursionError:
        text = None
    assert text is not None, "serialize_map or repr used a frame per level"
    assert text == "(compose lambda " * 5000 + "(coord 1)" + ")" * 5000
    assert r == f"Compose(in_dim=1, {text!r})"


def test_identity_is_input_dimension_and_text():
    # trees that differ in their input dimension or text are distinct objects
    distinct = [
        (Const((-0.0,), 1), Const((0.0,), 1)),
        (Affine(((1.0,),), (-0.0,)), Affine(((1.0,),), (0.0,))),
        (Smash(SmashParams(-0.0, 0.25)), Smash(SmashParams(0.0, 0.25))),
        (Coord(1, 3), Coord(1, 1)),
        (Sum((Coord(1, 2),)), Sum((Coord(1, 1),))),
        (Sum((Coord(1, 1),)), Product((Coord(1, 1),))),
        (Compose(Lambda(), Coord(1, 1)), Lambda()),
    ]
    for f, g in distinct:
        assert f is not g and f != g
    # equal trees are one object, however they were made
    x = coord(1, 1)
    pairs = [
        (Const((0.0, 2.5), 2), const([0, 2.5], 2)),
        (Smash(SmashParams(0, 0.25)), smash_map(SmashParams(0.0, 0.25))),
        (Sum((Coord(1, 2),)), add(coord(1, 2))),
        (parse_map("(lambda (piece 1 (0.5) (coord 1) (coord 1)))"),
         lambda_map(piecewise(1, [0.5], [x, x]))),
        (dataclasses.replace(Coord(1, 3), dim=1), x),
    ]
    for f, g in pairs:
        assert f is g
    f = pairs[3][0]
    assert copy.copy(f) is f and copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f
    assert repr(pairs[2][0]) == "Sum(in_dim=2, '(sum (coord 1))')"


def test_serialize_map_refuses_a_node_without_text():
    class Scale(SmoothMap):
        factor: float
        in_dim = out_dim = 1

        def _apply(self, X):
            return X * self.factor

    with pytest.raises(TypeError, match="^cannot serialize Scale$"):
        serialize_map(add(Scale(2.0), coord(1, 1)))


def test_node_class_needs_no_decorator(monkeypatch):
    # the metaclass makes a plain subclass a frozen, interned node that
    # compares by identity and shows its text as its repr
    class Scale(SmoothMap):
        factor: float
        in_dim = out_dim = 1

        def _apply(self, X):
            return X * self.factor

    f = Scale(2.0)
    assert f is Scale(2.0) and f != Scale(3.0)
    assert Scale.__eq__ is object.__eq__ and Scale.__hash__ is object.__hash__
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.factor = 3.0
    assert dataclasses.replace(f, factor=3.0) is Scale(3.0)
    assert add(f, coord(1, 1)).eval_many([[0.25], [1.0]]).tolist() == [[0.75], [3.0]]
    monkeypatch.setitem(_HEADS, Scale, "scale")
    assert repr(f) == "Scale(in_dim=1, 'scale')"


def test_intern_table_keeps_no_tree_alive():
    gc.collect()
    start = len(_NODES)
    g = _replacement(3)[0]
    assert len(_NODES) > start
    del g
    gc.collect()
    assert len(_NODES) == start


# run in a fresh process: a wrongly accepted ``Coord(True, 1)`` would take the
# intern key of ``Coord(1, 1)`` for every later test of this one
_REFUSED_BOOL_LEAVES_NO_NODE = """
import numpy as np
from tamecube.errors import DimensionError
from tamecube.maps import Coord, coord, serialize_map
try:
    Coord(True, 1)
except DimensionError:
    pass
else:
    raise SystemExit("Coord(True, 1) was accepted")
assert serialize_map(coord(1, 1)) == "(coord 1)", serialize_map(coord(1, 1))
node = Coord(np.int64(2), np.int64(3))
assert node is coord(2, 3) and type(node.index) is int and type(node.dim) is int
"""


def test_refused_bool_coordinate_leaves_the_integer_node_alone():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-c", _REFUSED_BOOL_LEAVES_NO_NODE], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr


def test_equal_trees_built_in_threads_are_one_object():
    # a lookup and its insertion are one step: threads that build the same
    # tree at once get one object
    def build(out, i, start):
        start.wait(timeout=10)
        f = coord(1, 1)
        for k in range(300):
            f = add(f, const(k + 0.5, 1))
        out[i] = f

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            out, start = [None] * 8, threading.Barrier(8)
            threads = [threading.Thread(target=build, args=(out, i, start)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert out[0] is not None and all(f is out[0] for f in out)
    finally:
        sys.setswitchinterval(switch)


def test_eval_many_returns_fresh_writable_array():
    pts = np.array([[0.25, 0.5], [0.75, 1.0]])
    trees = [
        coord(2, 2),
        const((3.0, 4.0), 2),
        parse_map("(coord 1)"),
        deformation_retraction_homotopy(1, 0.25).map,
    ]
    # zero rows and one row past a slice: both ends of the slicing
    many = np.random.default_rng(5).uniform(size=(_EVAL_ROWS + 1, 2))
    for rows in (pts, pts[:0], many):
        before = rows.copy()
        for f in trees:
            X = rows[:, : f.in_dim]
            out = f.eval_many(X)
            assert out.shape == (len(rows), f.out_dim)
            again = out.copy()
            out[...] = 99.0  # raises on a read-only array
            assert np.array_equal(rows, before)
            assert np.array_equal(f.eval_many(X), again)


def test_large_call_is_evaluated_in_slices():
    # one call of the 83,521 grid-17 rows on the n = 4 retraction: slicing
    # bounds its peak memory and changes no bit of its values
    f = approx_retraction(RetractionParams.from_eps(4, 0.2))
    rows = box_grid(Box(((0.0, 1.0),) * 4), 17)
    assert len(rows) == 83521 > 5 * _EVAL_ROWS
    f.eval_many(rows[:2])
    tracemalloc.start()
    try:
        out = f.eval_many(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.7e6
    by_hand = [f.eval_many(rows[i : i + _EVAL_ROWS]) for i in range(0, len(rows), _EVAL_ROWS)]
    assert out.tobytes() == np.concatenate(by_hand).tobytes()


def test_a_slice_holds_each_array_only_until_its_last_reader_has_run():
    # the benchmark's seed-1 n = 3 replacement, of the boundary of I^3
    # relative to the facet t3 = 1, on one slice of grid-65 boundary points:
    # with every container holding its input until it finished, g peaked
    # at 8.6 MB traced and the homotopy at time 1/2 at 10.1 MB
    rng = np.random.default_rng([1, 0, 1])
    axis, side = int(rng.integers(1, 4)), int(rng.integers(0, 2))
    L = CubicalComplex(3, (Face(3, ((axis, side),)),))
    f = random_map_admissible_on(rng, 3, L, 0.2)
    g, H, _ = admissible_replace(f, boundary_complex(3), L, 0.2, seed=int(rng.integers(2**31)))
    X = complex_grid(boundary_complex(3), 65)[:_EVAL_ROWS]
    assert len(X) == _EVAL_ROWS and (axis, side) == (3, 1)
    for h, rows in ((g, X), (H.map, np.concatenate([X, np.full((len(X), 1), 0.5)], axis=1))):
        h.eval_many(rows[:2])
        tracemalloc.start()
        try:
            out = h.eval_many(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6
        assert out.tobytes() == _reference_eval(h, rows).tobytes()


def test_recip_guard():
    f = recip_map(coord(1, 1))
    assert f.eval([0.25])[0] == 4.0
    with pytest.raises(DomainError):
        f.eval([0.0])


def test_piecewise_selection_and_validation():
    pw = piecewise(1, (0.5,), (const(1.0, 1), const(2.0, 1)))
    assert pw.eval([0.2])[0] == 1.0
    assert pw.eval([0.7])[0] == 2.0
    with pytest.raises(DomainError):
        piecewise(1, (0.7, 0.3), (const(1.0, 1), const(2.0, 1), const(3.0, 1)))
    with pytest.raises(DimensionError):
        piecewise(1, (0.5,), (const(1.0, 1),))
    with pytest.raises(DomainError):
        piecewise(1, (1.5,), (const(1.0, 1), const(2.0, 1)))


def test_zero_row_call_through_a_piecewise_node():
    # a piece that gets no rows asks its children for none, and the
    # evaluation resumes it with no child call
    pw = piecewise(1, (0.5,), (tup(coord(1, 2), coord(2, 2)), tup(coord(2, 2), const(1.0, 2))))
    out = pw.eval_many(np.zeros((0, 2)))
    assert out.shape == (0, 2) and out.dtype == np.float64


def test_gamma_node():
    x = np.linspace(0.0, 1.0, 33).reshape(-1, 1)
    assert np.array_equal(Gamma().eval_many(x)[:, 0], gamma_many(x[:, 0]))
    assert parse_map("(gamma (coord 1))") is Compose(Gamma(), Coord(1, 1))


def test_homotopy_slice():
    f = lambda_map(coord(1, 1))
    H = constant_homotopy(f)
    grid = np.linspace(0, 1, 33).reshape(-1, 1)
    assert np.array_equal(
        H.slice(0.37).eval_many(grid), f.eval_many(grid)
    )
    for u in (1.5, 1.0 + 1e-13, -1e-300, math.nan):
        with pytest.raises(DomainError):
            H.slice(u)


def _replacement_homotopy(n):
    L = CubicalComplex(n, (Face(n, ((1, 0),)),))
    f = random_map_admissible_on(np.random.default_rng(n), n, L, 0.2)
    return admissible_replace(f, boundary_complex(n), L, 0.2, ToleranceConfig(grid_res=11), seed=n)[1]


def _concat_homotopy():
    f = random_tame_map(np.random.default_rng(5), 2, 0.25)
    g1, h1 = tame_replace(f, 0.1, 0.25)
    return concat_homotopy(h1, tame_replace(g1, 0.05, 0.1)[1])


@pytest.mark.parametrize(
    "build",
    [
        lambda: deformation_retraction_homotopy(2, 0.3),
        lambda: deformation_retraction_homotopy(3, 0.3),
        lambda: _replacement_homotopy(2),
        lambda: _replacement_homotopy(3),
        _concat_homotopy,
    ],
    ids=["deformation-2", "deformation-3", "replace-2", "replace-3", "concat"],
)
def test_time_column_evaluates_like_the_slice(build):
    # the suites' time-slice rows append the time column instead of slicing
    H = build()
    n = H.space_dim
    pts = np.concatenate([box_grid(Box(((0.0, 1.0),) * n), 9), np.random.default_rng(0).uniform(size=(200, n))])
    for u in (0.0, 0.25, 0.5, 0.75, 1.0):
        stacked = H.map.eval_many(np.insert(pts, n, u, axis=1))
        sliced = H.slice(u).eval_many(pts)
        assert stacked.tobytes() == sliced.tobytes(), u


# --- text format ---------------------------------------------------------


def test_parse_examples():
    f = parse_map("(smash 0.1 0.25 (coord 2))")
    assert isinstance(f, Compose) and isinstance(f.outer, Smash)
    assert f.in_dim == 2
    with pytest.raises(DimensionError):
        parse_map("(compose (affine [[1.0 0.0]] [0.0]) gamma)")
    with pytest.raises(ParseError):
        parse_map("(lambda (coord")
    try:
        parse_map("(lambda (coord 1)) junk")
    except ParseError as exc:
        assert exc.line == 1 and exc.col > 1


def test_parse_affine_and_piece():
    f = parse_map("(affine [[1.0 0.0] [0.0 1.0]] [0.0 0.5])")
    assert tuple(f.eval([0.25, 0.25])) == (0.25, 0.75)
    pw = parse_map("(piece 1 (0.5) (const 1.0) (const 2.0))")
    assert isinstance(pw, PiecewiseAxis)


def test_serialization_canonical():
    f = parse_map("( lambda   ( coord  1 ) )")
    assert serialize_map(f) == "(compose lambda (coord 1))"


def _random_tree(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    base = random_smooth_map(rng, n, out_dim=int(rng.integers(1, 3)))
    # ensure inference is exact by anchoring with an affine of full width
    anchor = Affine(np.eye(n).tolist(), [0.0] * n)
    f = Compose(base, anchor)
    if rng.uniform() < 0.5:
        f = piecewise(1, (0.5,), (f, f))
    return f


@given(st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_round_trip_evaluates_identically(seed):
    f = _random_tree(seed)
    g = parse_map(serialize_map(f))
    assert g == f
    rng = np.random.default_rng(seed + 1)
    pts = rng.uniform(size=(100, f.in_dim))
    assert np.array_equal(f.eval_many(pts), g.eval_many(pts))


def test_round_trip_all_atoms():
    texts = [
        "gamma",
        "lambda",
        "smashdyn",
        "recip",
        "(smash 0.1 0.25)",
        "(coord 2)",
        "(project 1)",
        "(const 1.0 2.0)",
        "(sum (coord 1) (coord 2))",
        "(prod (coord 1) (coord 2))",
        "(tuple (coord 1) (coord 2))",
        "(compose lambda (coord 1))",
        "(affine [[1.0 2.0]] [0.5])",
        "(piece 2 (0.25 0.75) (const 0.0) (coord 2) (const 1.0))",
        "(compose smashdyn (tuple (coord 1) (const 0.1) (const 0.3)))",
        "(compose recip (coord 1))",
    ]
    for text in texts:
        f = parse_map(text)
        assert parse_map(serialize_map(f)) == f


def test_readme_atoms_are_the_parser_atoms():
    # the bare-word rows of the README's map-language table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Map expression language", 1)[1].split("\n## ", 1)[0]
    words = set(re.findall(r"^\| `([a-z0-9]+)` \|", section, flags=re.M))
    assert words == set(_ATOMS)


def test_smashdyn_sugar():
    f = parse_map("(smashdyn (coord 1) (const 0.1) (const 0.3))")
    g = smashdyn_map(coord(1, 1), const(0.1, 1), const(0.3, 1))
    assert f == g


def test_construction_outputs_round_trip():
    mid = ToleranceConfig(grid_res=17)
    outputs = [approx_retraction(RetractionParams.from_eps(n, 0.25)) for n in (1, 2, 3, 4)]
    outputs += [deformation_retraction_homotopy(n, 0.25).map for n in (1, 2, 3)]
    g, H = tame_replace(random_tame_map(np.random.default_rng(0), 2, 0.25), 0.1, 0.25)
    outputs += [g, H.map]
    f = random_tame_map(np.random.default_rng(1), 2, 0.25, space_eps=0.375)
    outputs.append(extend_tame(f, eps=0.25, sigma=0.1, cfg=mid))
    outputs.append(extend_to_jdelta(random_tame_map(np.random.default_rng(2), 2, 0.3), 0.3, cfg=mid))
    outputs.append(concat_homotopy(H, constant_homotopy(g)).map)
    phi = compose(random_smooth_map(np.random.default_rng(3), 1), coord(2, 2))
    outputs.append(concat_maps(phi, phi))
    L = CubicalComplex(2, (Face(2, ((1, 0),)),))
    f = random_map_admissible_on(np.random.default_rng(4), 2, L, 0.2)
    g, H, _ = admissible_replace(f, boundary_complex(2), L, 0.2, mid, seed=3)
    outputs += [g, H.map]
    outputs += [_replacement(n)[0] for n in (2, 3)]
    # the three trees that the benchmark's sample_dense workload writes and samples
    outputs += [deformation_retraction_homotopy(3, 0.3).map, approx_retraction(RetractionParams.from_eps(4, 0.2))]
    f = random_tame_map(np.random.default_rng([1, 101]), 3, 0.25, space_eps=0.375)
    outputs.append(extend_tame(f, eps=0.25, sigma=0.1, seed=1))
    for t in outputs:
        # the parsed tree is the built one, so it shares its nodes alike
        assert parse_map(serialize_map(t)) is t


# one malformed text per parser message: (text, error type, message, (line, col))
PARSE_ERRORS = [
    ("", ParseError, "unexpected end of input", (1, 1)),
    ("(lambda (coord", ParseError, "missing ')'", (1, 15)),
    ("[1.0 2.0", ParseError, "missing ']'", (1, 9)),
    (")", ParseError, "unexpected ')'", (1, 1)),
    ("(sum (coord 1) ]", ParseError, "unexpected ']'", (1, 16)),
    ("(coord 1$)", ParseError, "bad token '1$'", (1, 8)),
    ("(lambda (coord 1)) junk", ParseError, "trailing input 'junk'", (1, 20)),
    ("0.5", ParseError, "bare number cannot be a map", (1, 1)),
    ("[1.0]", ParseError, "bracket vector cannot be a map", (1, 1)),
    ("sin", ParseError, "unknown atom 'sin'", (1, 1)),
    ("(1.0 2.0)", ParseError, "expected a keyword after '('", (1, 1)),
    ("(sin (coord 1))", ParseError, "unknown form 'sin'", (1, 1)),
    ("(coord 1 2)", ParseError, "coord takes one index", (1, 1)),
    ("(coord x)", ParseError, "expected a number for coord index", (1, 8)),
    ("(project 1.5)", ParseError, "expected an integer for project index, got 1.5", (1, 10)),
    ("(const)", ParseError, "const needs at least one value", (1, 1)),
    ("(affine [[1.0]])", ParseError, "affine takes [rows] [offset]", (1, 1)),
    ("(affine [1.0] [0.0])", ParseError, "affine matrix must be a vector of row vectors", (1, 1)),
    ("(smash 0.1)", ParseError, "smash takes sigma tau [map]", (1, 1)),
    ("(lambda (coord 1) (coord 2))", ParseError, "(lambda f) takes one map", (1, 1)),
    ("(smashdyn (coord 1) (coord 2))", ParseError, "(smashdyn t sigma tau) takes three maps", (1, 1)),
    ("(compose lambda)", ParseError, "compose takes two maps", (1, 1)),
    ("(tuple)", ParseError, "tuple needs at least one map", (1, 1)),
    ("(piece 1 0.5 (coord 1) (coord 1))", ParseError, "piece takes axis (breaks) and maps", (1, 1)),
    ("(sum gamma smashdyn)", ParseError, "children demand different input dimensions [1, 3]", (1, 1)),
    ("(sum gamma (coord 2))", ParseError, "child needs at least 2 inputs but siblings fix 1", (1, 1)),
    ("(piece 2 (0.5) gamma gamma)", ParseError, "piece axis 2 exceeds dimension 1", (1, 1)),
    ("(const 1.0 x)", ParseError, "expected a number for const value", (1, 12)),
    ("(affine [[1.0 y]] [0.0])", ParseError, "expected a number for matrix entry", (1, 15)),
    ("(affine [[1.0]] [z])", ParseError, "expected a number for offset entry", (1, 18)),
    ("(smash s 0.25)", ParseError, "expected a number for smash sigma", (1, 8)),
    ("(piece 1 (x) (coord 1) (coord 1))", ParseError, "expected a number for breakpoint", (1, 11)),
    ("(coord 0)", DimensionError, "in (coord ...): coord 0 out of range 1..1", None),
    (
        "(piece 0 (0.5) (coord 1) (coord 1))",
        DimensionError,
        "in (piece ...): piece axis 0 out of range 1..1",
        None,
    ),
    (
        "(compose gamma (tuple (coord 1) (coord 1)))",
        DimensionError,
        "in (compose ...): compose: outer expects 1 inputs, inner produces 2",
        None,
    ),
    (
        "(compose (coord 3) (tuple (coord 1) (coord 1)))",
        DimensionError,
        "in (compose ...): compose: outer needs at least 3 inputs, inner produces 2",
        None,
    ),
    (
        "(sum (tuple (coord 1) (coord 1)) (tuple (coord 1) (coord 1) (coord 1)))",
        DimensionError,
        "in (sum ...): sum: children out_dims [2, 3] incompatible",
        None,
    ),
    (
        "(affine [[1.0] [1.0 2.0]] [0.0 0.0])",
        DimensionError,
        "in (affine ...): affine matrix rows have unequal length",
        None,
    ),
    (
        "(smash 0.3 0.1)",
        DomainError,
        "in (smash ...): smash parameters need 0 <= sigma < tau <= 1/2, got sigma=0.3, tau=0.1",
        None,
    ),
    (
        "(piece 1 (0.7 0.3) (coord 1) (coord 1) (coord 1))",
        DomainError,
        "in (piece ...): breakpoints must be strictly increasing: (0.7, 0.3)",
        None,
    ),
    (
        "(sum (lambda (tuple (coord 1) (coord 1))))",
        DimensionError,
        "in (sum ...): in (lambda ...): compose: outer expects 1 inputs, inner produces 2",
        None,
    ),
    # the outer map of a compose is read only after the inner one is built
    (
        "(compose (foo) (coord 0))",
        DimensionError,
        "in (compose ...): in (coord ...): coord 0 out of range 1..1",
        None,
    ),
    # numbers are checked before the form's children are built
    ("(smash x 0.25 (const y))", ParseError, "expected a number for smash sigma", (1, 8)),
    ("(sum\n  (coord 1)\n  (coord 2 3))", ParseError, "coord takes one index", (3, 3)),
    # the end of input is the end of the last token, not of trailing whitespace
    ("(lambda (coord 1)\n   \t", ParseError, "missing ')'", (1, 18)),
    # every atom is smooth: there is no clamp
    ("clamp01", ParseError, "unknown atom 'clamp01'", (1, 1)),
    ("(clamp01 (coord 1))", ParseError, "unknown form 'clamp01'", (1, 1)),
]


@pytest.mark.parametrize("text,kind,message,where", PARSE_ERRORS)
def test_parse_error_table(text, kind, message, where):
    with pytest.raises(kind) as info:
        parse_map(text)
    assert type(info.value) is kind
    if where is None:
        assert str(info.value) == message
    else:
        assert str(info.value) == f"{where[0]}:{where[1]}: {message}"
        assert (info.value.line, info.value.col) == where


def test_affine_rows_must_be_vectors():
    # a later row that is a number, a symbol or a parenthesised list
    for row in ("2.0", "lambda", "(3.0 4.0)"):
        with pytest.raises(ParseError, match="^1:1: affine matrix must be a vector of row vectors$"):
            parse_map(f"(affine [[1.0 2.0] {row}] [0.0 0.0])")


def test_deep_parse():
    lam = parse_map("(lambda " * 800 + "(coord 1)" + ")" * 800)
    outer = parse_map("(compose " * 800 + "lambda" + " (coord 1))" * 800)
    total = parse_map("(sum " * 400 + "(coord 1)" + ")" * 400)
    for f in (lam, outer, total):
        assert (f.in_dim, f.out_dim) == (1, 1)
    assert isinstance(outer.outer, Compose) and isinstance(total.children[0], type(total))


def test_too_deep_text_is_a_parse_error():
    with pytest.raises(ParseError, match="^1:1: nested too deeply$"):
        parse_map("(lambda " * 3000 + "(coord 1)" + ")" * 3000)


def test_non_finite_numbers_rejected():
    with pytest.raises(DomainError, match=r"^in \(affine \.\.\.\): .*finite"):
        parse_map("(affine [[1e400]] [0.0])")
    with pytest.raises(DomainError, match=r"^in \(sum \.\.\.\): in \(const \.\.\.\): .*finite"):
        parse_map("(sum (coord 1) (const -1e400))")
    nan = float("nan")
    for build in (
        lambda: Const((nan,), 1),
        lambda: const(np.inf, 2),
        lambda: Affine(((1.0, nan),), (0.0,)),
        lambda: Affine([[1.0]], [np.inf]),
    ):
        with pytest.raises(DomainError):
            build()


def test_parse_mismatch_spec_shape():
    # outer tuple demands more inputs than the affine produces
    with pytest.raises(DimensionError):
        parse_map("(compose (tuple (coord 3)) (affine [[1.0 0.0] [0.0 1.0]] [0.0 0.0]))")


def test_eval_many_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    f = smash_map(SmashParams(0.1, 0.3), coord(1, 2))
    pts = np.random.default_rng(0).uniform(size=(500, 2))

    def work(_):
        return f.eval_many(pts)

    with ThreadPoolExecutor(max_workers=4) as pool:
        outs = list(pool.map(work, range(8)))
    assert all(np.array_equal(o, outs[0]) for o in outs)
