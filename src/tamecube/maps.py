"""Combinator trees for smooth maps R^n -> R^m.

A map is an immutable tree of primitive nodes (coordinates, affine maps,
sums, products, tuples, composition, the scalar kernels, and a piecewise
node that branches on one input coordinate).  Every node but the piecewise
one is smooth; the seam checks sample how its pieces meet.  Maps are on
the cube [0, 1]^n and no node carries a box: a finite point evaluates by
the same formulas in equal trees, a non-finite one raises ``DomainError``,
and so does a point whose value holds NaN or +-inf.
Nodes are hash-consed when built: equal trees are one object, ``==`` is
``is``, and a construction that reuses a subtree, as the replacement's
skeleton induction does at every stage, holds it once.

Trees evaluate on batches of points, exactly and with no interpolation.
``eval_many`` evaluates its rows in slices of 16,384, so the memory it
works in is that of one slice, and each slice evaluates each distinct
node on every row that reaches it along any path.  Every node's height
is fixed when it is built, and when no container can resume, every
waiting node of the greatest height takes its turn on the concatenation
of the distinct input arrays it was handed.  An array is held only
until the last node that reads it has run.  A row's value does not
depend on its batch, so the values are those of a plain recursion over
the expanded tree.  The walk keeps its own lists and costs no Python
frame per nesting level.

A canonical s-expression text format (``serialize_map``, ``parse_map``)
records each node but not the input dimension.  The parser infers the
smallest input dimension consistent with the text, so a tree round-trips
to the same object exactly when its own nodes fix its input dimension, as
the output of every construction does.  Numbers in the text must be
finite.  The text and the input dimension are a tree's identity: two trees
are one object when they agree on both, so ``-0.0`` and ``0.0`` differ.
The text writes a shared subtree once per path.  Writing it costs no frame
per level either; parsing it costs one.

Two primitives take kernel parameters from their inputs instead of from
construction-time constants: ``SmashDyn`` evaluates the smash kernel at
``(t, sigma, tau)`` read off its three input coordinates, and ``Recip``
is 1/x on positive reals.  The retraction and extension constructions
modulate their band widths along the homotopy parameter, which cannot be
expressed with constant-parameter nodes alone.
"""

from __future__ import annotations

import math
import re
import struct
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain
from numbers import Integral
from operator import attrgetter
from typing import ClassVar

import numpy as np

from .errors import DimensionError, DomainError, ParseError, _is_number
from .kernels import (
    SmashParams,
    gamma_many,
    lambda_many,
    smash,
)

__all__ = [
    "SmoothMap",
    "Const",
    "Coord",
    "Affine",
    "Sum",
    "Product",
    "Compose",
    "TupleMap",
    "Gamma",
    "Lambda",
    "Smash",
    "SmashDyn",
    "Recip",
    "PiecewiseAxis",
    "Homotopy",
    "const",
    "coord",
    "affine_row",
    "compose",
    "tup",
    "add",
    "mul",
    "lambda_map",
    "smash_map",
    "smashdyn_map",
    "recip_map",
    "piecewise",
    "one_minus",
    "embed_time",
    "drop_time",
    "constant_homotopy",
    "parse_map",
    "serialize_map",
]

# rows per evaluation pass of one ``eval_many`` call, and per slice of a
# ``sample`` export: bounds the evaluation's peak memory
_EVAL_ROWS = 1 << 14


# the intern table: every live node, keyed on its structure
_NODES = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()
_BITS = struct.Struct("<d").pack


def _frozen(v):
    """A node field as part of an intern key: a float by its bit pattern, so
    that ``-0.0`` and ``0.0`` stay apart, and a child node by identity."""
    if isinstance(v, float):
        return _BITS(v)
    if isinstance(v, tuple):
        return tuple(map(_frozen, v))
    if isinstance(v, SmashParams):
        return _BITS(float(v.sigma)), _BITS(float(v.tau))
    return v


class _Interned(type):
    """Makes every node class a frozen dataclass that keeps identity
    equality and ``SmoothMap``'s ``repr``, and every node constructor, and
    so every builder, ``parse_map`` and ``dataclasses.replace``, return the
    one live node of its structure.

    The node is built and validated first, then looked up by its type and
    its normalized fields, its children by identity: one O(1) lookup
    however deep the tree.  The weak table only decides identity; it
    holds nothing computed from points.
    """

    def __new__(mcls, name, bases, namespace, **kwargs):
        cls = super().__new__(mcls, name, bases, namespace, **kwargs)
        return dataclass(frozen=True, eq=False, repr=False)(cls)

    def __call__(cls, *args, **kwargs):
        node = super().__call__(*args, **kwargs)
        # a node's __dict__ holds its normalized fields and the dimensions
        # that ``_set_dims`` stored
        key = (cls, *map(_frozen, vars(node).values()))
        with _NODES_LOCK:  # look up and insert as one step
            return _NODES.setdefault(key, node)


class SmoothMap(metaclass=_Interned):
    """Base node: a map on the cube [0, 1]^in_dim.

    ``eval_many`` evaluates any finite point, alike in equal trees, and rejects
    a non-finite point or value.  Trees with one input dimension and one
    ``serialize_map`` text are one object (``_Interned``), which ``copy``,
    ``deepcopy`` and ``pickle`` give back; ``repr`` shows the input
    dimension and the text.

    ``in_dim``, ``out_dim`` and ``_height`` are fixed when a node is built:
    leaf nodes of fixed arity carry them as class constants, the others set
    them in ``__post_init__`` through ``_set_dims``.  ``_height`` is 0 for a
    leaf and one more than the greatest child height for a container; the
    children are built first, so it costs no walk.

    A leaf computes its value on a batch in ``_apply``.  A container lists
    its child nodes in ``_kids`` and evaluates in ``_steps``, a generator
    that yields a list of ``(child, rows)`` pairs (rows ``None`` for a
    child that gets none), receives the children's values in that order,
    and returns its own; ``_evaluate`` drives it and empties each list once
    it has asked.  A ``_steps`` keeps no reference to its input or to a
    child's value across a ``yield``, so that an array lives only until
    its last reader has run.
    """

    in_dim: ClassVar[int]
    out_dim: ClassVar[int]
    _height: ClassVar[int] = 0
    _kids: ClassVar[tuple["SmoothMap", ...]] = ()

    def _set_dims(self, in_dim: int, out_dim: int) -> None:
        object.__setattr__(self, "in_dim", in_dim)
        object.__setattr__(self, "out_dim", out_dim)
        if self._kids:
            object.__setattr__(self, "_height", 1 + max(k._height for k in self._kids))

    def __repr__(self):
        return f"{type(self).__name__}(in_dim={self.in_dim}, {serialize_map(self)!r})"

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):  # rebuilt through the constructor, so canonical
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def _apply(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def on_unit_box(self) -> "SmoothMap":
        """The map itself, as no node carries a box; the benchmark calls it."""
        return self

    def eval_many(self, pts) -> np.ndarray:
        X = np.asarray(pts, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.in_dim:
            raise DimensionError(
                f"expected points of shape (N, {self.in_dim}), got {X.shape}"
            )
        _require_finite(X, X, "point {} is not finite")
        # zero rows are one empty slice; the concatenation is a fresh array
        out = np.concatenate(
            [_evaluate(self, X[i : i + _EVAL_ROWS]) for i in range(0, len(X) or 1, _EVAL_ROWS)]
        )
        _require_finite(out, X, "value at point {} is not finite")
        return out

    def eval(self, point) -> np.ndarray:
        P = np.asarray(point, dtype=float).reshape(1, -1)
        return self.eval_many(P)[0]


def _plain_ints(obj, what: str, *names: str) -> None:
    """Store fields ``names`` of ``obj`` as ``int``s, refusing a non-integer and a
    bool: ``True`` would take the intern key of ``1``, and ``1.0`` writes as ``1.0``."""
    for name in names:
        if not _is_number(v := getattr(obj, name), Integral):
            raise DimensionError(f"{what} {name} must be an integer, got {v!r}")
        object.__setattr__(obj, name, int(v))


def _require_finite(A: np.ndarray, X: np.ndarray, message: str) -> None:
    """Raise ``DomainError`` naming the first point of ``X`` whose row of ``A``
    holds NaN or ±inf."""
    finite = np.isfinite(A)
    if not finite.all():
        raise DomainError(message.format(tuple(X[np.argmin(finite.all(axis=1))].tolist())))


class _Job:
    """One evaluation of a container in ``_evaluate``: its ``_steps``
    generator, the values of the children it asked for, how many of them
    are still out, and per group of requests for its own value the group's
    row count and its requests."""

    __slots__ = ("steps", "values", "left", "groups")

    def __init__(self, steps, groups):
        self.steps, self.values, self.left, self.groups = steps, None, 0, groups


def _evaluate(root: SmoothMap, X: np.ndarray) -> np.ndarray:
    """The value of ``root`` on the rows ``X``, visiting each distinct node.

    One rule: jobs resume while any can, and when none can, every asked
    node of the greatest ``_height`` takes its turn in one round.  Each
    evaluates the concatenation of the distinct arrays it was asked for (an
    array asked twice, as by ``add(f, f)``, once) and hands each requester
    its slice.  Only a container asks for rows, and it is higher than its
    children, so by then every node above has run or waits on a child.
    What can still ask later is a suspended ``Compose`` that hands its
    ``outer`` rows once its ``inner`` has returned; a node that several
    composition stages reach, as one ``Lambda()`` is reached by every
    ``lambda_map`` in a tree, evaluates again on those rows.
    ``Compose(f, f)`` is the smallest case.

    An array is held only until the last node that reads it has run: a
    round drops each node's entry once the node has run, a job keeps its
    groups' row counts, not their rows, and ``ask`` empties the call list
    a generator yielded, which was then the generator's only hold on its
    input.  ``step`` and ``run`` are functions so that none of their
    locals outlives them.
    """
    asked = {}  # height -> {id: (node, {id(rows): (rows, [(job, slot), ...])})}
    resume = []

    def ask(job, calls):
        """Queue ``job``'s requests for ``calls``, then empty the list."""
        job.values = [None] * len(calls)
        for slot, (kid, rows) in enumerate(calls):
            if rows is not None:
                job.left += 1
                groups = asked.setdefault(kid._height, {}).setdefault(id(kid), (kid, {}))[1]
                groups.setdefault(id(rows), (rows, []))[1].append((job, slot))
        calls.clear()
        if not job.left:
            resume.append(job)

    def hand(groups, value):
        """Hand each group of requests its rows' slice of ``value``."""
        start = 0
        for count, requests in groups:
            stop = start + count
            part = value if len(groups) == 1 else value[start:stop]
            for job, slot in requests:
                job.values[slot] = part
                job.left -= 1
                if not job.left:
                    resume.append(job)
            start = stop

    def step(job):
        """Resume ``job`` with its children's values."""
        try:
            calls = job.steps.send(job.values)
        except StopIteration as done:
            hand(job.groups, done.value)
        else:
            ask(job, calls)

    def run(level, key):
        """Evaluate the node of ``level[key]`` once on the distinct arrays it
        was asked for, which drops them once they are joined."""
        node, by_rows = level.pop(key)
        groups = [(len(rows), requests) for rows, requests in by_rows.values()]
        rows = [rows for rows, _ in by_rows.values()]
        del by_rows
        rows = rows[0] if len(rows) == 1 else np.concatenate(rows)
        if node._kids:
            resume.append(_Job(node._steps(rows), groups))
        else:
            hand(groups, node._apply(rows))

    top = _Job(None, None)  # receives the root's value
    ask(top, [(root, X)])
    while top.left:
        if resume:
            step(resume.pop())
            continue
        level = asked.pop(max(asked))
        for key in list(level):
            run(level, key)
    return top.values[0]


class Const(SmoothMap):
    values: tuple[float, ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _plain_ints(self, "const", "dim")
        if not self.values:
            raise DimensionError("const needs at least one component")
        if self.dim < 1:
            raise DimensionError("const in_dim must be >= 1")
        if not all(map(math.isfinite, self.values)):
            raise DomainError(f"const values must be finite, got {self.values}")
        self._set_dims(self.dim, len(self.values))

    def _apply(self, X):
        return np.broadcast_to(np.array(self.values), (len(X), len(self.values)))


class Coord(SmoothMap):
    """Selects input coordinate ``index`` (1-based); ``(project k)`` reads as this."""

    index: int
    dim: int

    def __post_init__(self):
        _plain_ints(self, "coord", "index", "dim")
        if not 1 <= self.index <= self.dim:
            raise DimensionError(f"coord {self.index} out of range 1..{self.dim}")
        self._set_dims(self.dim, 1)

    def _apply(self, X):
        return X[:, self.index - 1 : self.index]


class Affine(SmoothMap):
    matrix: tuple[tuple[float, ...], ...]
    offset: tuple[float, ...]

    def __post_init__(self):
        m = tuple(tuple(float(v) for v in row) for row in self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", tuple(float(v) for v in self.offset))
        if not m or not m[0]:
            raise DimensionError("affine matrix must be non-empty")
        cols = len(m[0])
        if any(len(row) != cols for row in m):
            raise DimensionError("affine matrix rows have unequal length")
        if len(self.offset) != len(m):
            raise DimensionError(
                f"affine offset length {len(self.offset)} != row count {len(m)}"
            )
        if not all(map(math.isfinite, chain(self.offset, *m))):
            raise DomainError("affine matrix and offset entries must be finite")
        self._set_dims(cols, len(m))

    def _apply(self, X):
        # explicit column sums, not a BLAS product, so that a row's value
        # does not depend on the batch it is evaluated in
        out = np.empty((len(X), self.out_dim))
        for i, (row, b) in enumerate(zip(self.matrix, self.offset)):
            acc = b
            for k, c in enumerate(row):
                if c != 0.0:
                    acc = acc + X[:, k] * c
            out[:, i] = acc
        return out


def _common_in(children, keyword):
    ins = {c.in_dim for c in children}
    if len(ins) != 1:
        raise DimensionError(f"{keyword}: children in_dims {sorted(ins)} differ")
    return ins.pop()


class _Siblings(SmoothMap):
    """At least one child, all on one input dimension and handed the same
    rows.  A subclass states its text ``keyword``, its ``_out_dim`` from
    the children's and its ``_steps``.
    """

    children: tuple[SmoothMap, ...]
    keyword: ClassVar[str]

    def __post_init__(self):
        if not self.children:
            raise DimensionError(f"{self.keyword} needs at least one child")
        self._set_dims(_common_in(self.children, self.keyword), self._out_dim())

    _kids = property(attrgetter("children"))


class _Fold(_Siblings):
    """Folds its children's values with ``op``, starting from ``unit``; an
    output dimension of 1 broadcasts against the others."""

    unit: ClassVar[float]
    op: ClassVar[np.ufunc]

    def _out_dim(self):
        outs = {c.out_dim for c in self.children}
        m = max(outs)
        if not outs <= {1, m}:
            raise DimensionError(f"{self.keyword}: children out_dims {sorted(outs)} incompatible")
        return m

    def _steps(self, X):
        rows, calls = len(X), [(c, X) for c in self.children]
        del X
        values = yield calls
        acc = np.full((rows, self.out_dim), self.unit)
        for value in values:
            acc = self.op(acc, value)
        return acc


class Sum(_Fold):
    keyword, unit, op = "sum", 0.0, np.add


class Product(_Fold):
    keyword, unit, op = "prod", 1.0, np.multiply


class TupleMap(_Siblings):
    keyword = "tuple"

    def _out_dim(self):
        return sum(c.out_dim for c in self.children)

    def _steps(self, X):
        calls = [(c, X) for c in self.children]
        del X
        return np.concatenate((yield calls), axis=1)


class Compose(SmoothMap):
    outer: SmoothMap
    inner: SmoothMap

    def __post_init__(self):
        if self.outer.in_dim != self.inner.out_dim:
            raise DimensionError(
                f"compose: outer expects {self.outer.in_dim} inputs, "
                f"inner produces {self.inner.out_dim}"
            )
        self._set_dims(self.inner.in_dim, self.outer.out_dim)

    _kids = property(attrgetter("outer", "inner"))

    def _steps(self, X):
        calls = [(self.inner, X)]
        del X
        calls = [(self.outer, (yield calls)[0])]
        return (yield calls)[0]


class Gamma(SmoothMap):
    in_dim = out_dim = 1

    def _apply(self, X):
        return gamma_many(X[:, 0]).reshape(-1, 1)


class Lambda(SmoothMap):
    in_dim = out_dim = 1

    def _apply(self, X):
        return lambda_many(X[:, 0]).reshape(-1, 1)


class Smash(SmoothMap):
    params: SmashParams

    in_dim = out_dim = 1

    def _apply(self, X):
        return smash(X[:, 0], self.params.sigma, self.params.tau).reshape(-1, 1)


class SmashDyn(SmoothMap):
    """Smash kernel with runtime parameters: inputs are (t, sigma, tau).

    A schedule error names an element of the batch this node evaluated,
    which merges the rows of every path that reaches it in one round.
    """

    in_dim = 3
    out_dim = 1

    def _apply(self, X):
        return smash(X[:, 0], X[:, 1], X[:, 2]).reshape(-1, 1)


class Recip(SmoothMap):
    """1/x on strictly positive inputs."""

    in_dim = out_dim = 1

    def _apply(self, X):
        x = X[:, 0]
        if np.any(x <= 0.0):
            raise DomainError("recip requires strictly positive input")
        return (1.0 / x).reshape(-1, 1)


class PiecewiseAxis(SmoothMap):
    """Branches on one input coordinate at fixed breakpoints in (0, 1).

    Piece i applies on the band between breakpoints i-1 and i; at a
    breakpoint the right piece is used (neighbouring pieces are expected
    to agree there, see the seam checks).
    """

    axis: int
    breakpoints: tuple[float, ...]
    pieces: tuple[SmoothMap, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "breakpoints", tuple(float(b) for b in self.breakpoints)
        )
        _plain_ints(self, "piece", "axis")
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise DimensionError(
                f"piece: {len(self.breakpoints)} breakpoints need "
                f"{len(self.breakpoints) + 1} pieces, got {len(self.pieces)}"
            )
        bs = self.breakpoints
        if any(not 0.0 < b < 1.0 for b in bs):
            raise DomainError(f"breakpoints must lie strictly in (0, 1): {bs}")
        if any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise DomainError(f"breakpoints must be strictly increasing: {bs}")
        n = _common_in(self.pieces, "piece")
        outs = {p.out_dim for p in self.pieces}
        if len(outs) != 1:
            raise DimensionError(f"piece: children out_dims {sorted(outs)} differ")
        if not 1 <= self.axis <= n:
            raise DimensionError(f"piece axis {self.axis} out of range 1..{n}")
        self._set_dims(n, outs.pop())

    _kids = property(attrgetter("pieces"))

    def _steps(self, X):
        idx = np.searchsorted(np.array(self.breakpoints), X[:, self.axis - 1], side="right")
        masks = [idx == i for i in range(len(self.pieces))]
        rows, calls = len(X), [(p, X[m] if m.any() else None) for p, m in zip(self.pieces, masks)]
        del X, idx
        values = yield calls
        out = np.empty((rows, self.out_dim))
        for mask, value in zip(masks, values):
            if value is not None:
                out[mask] = value
        return out


# ---------------------------------------------------------------------------
# builders


def const(values, in_dim: int) -> Const:
    if np.isscalar(values):
        values = (values,)
    return Const(tuple(values), in_dim)


def coord(index: int, n: int) -> Coord:
    return Coord(index, n)


def affine_row(n: int, coeffs: dict[int, float], offset: float = 0.0) -> Affine:
    """Single-output affine map sum_k coeffs[k] * t_k + offset (1-based keys)."""
    row = [0.0] * n
    for a, cval in coeffs.items():
        row[a - 1] = float(cval)
    return Affine((tuple(row),), (float(offset),))


def compose(*fs: SmoothMap) -> SmoothMap:
    """compose(f, g, h) is f after g after h."""
    if not fs:
        raise DimensionError("compose needs at least one map")
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = Compose(f, out)
    return out


def tup(*fs: SmoothMap) -> TupleMap:
    return TupleMap(tuple(fs))


def add(*fs: SmoothMap) -> Sum:
    return Sum(tuple(fs))


def mul(*fs: SmoothMap) -> Product:
    return Product(tuple(fs))


def lambda_map(f: SmoothMap | None = None) -> SmoothMap:
    return Lambda() if f is None else Compose(Lambda(), f)


def smash_map(params: SmashParams, f: SmoothMap | None = None) -> SmoothMap:
    node = Smash(params)
    return node if f is None else Compose(node, f)


def smashdyn_map(t: SmoothMap, sigma: SmoothMap, tau: SmoothMap) -> SmoothMap:
    return Compose(SmashDyn(), tup(t, sigma, tau))


def recip_map(f: SmoothMap) -> SmoothMap:
    return Compose(Recip(), f)


def piecewise(axis: int, breakpoints, pieces) -> PiecewiseAxis:
    return PiecewiseAxis(axis, tuple(breakpoints), tuple(pieces))


def one_minus(f: SmoothMap) -> SmoothMap:
    """1 - f for a scalar-valued map."""
    if f.out_dim != 1:
        raise DimensionError("one_minus expects a scalar-valued map")
    return Compose(Affine(((-1.0,),), (1.0,)), f)


def straight_line(u: SmoothMap, a: SmoothMap, b: SmoothMap) -> SmoothMap:
    """(1 - u) a + u b for a scalar-valued u: the straight line from a to b."""
    return add(mul(one_minus(u), a), mul(u, b))


def embed_time(n: int, u: float) -> Affine:
    """x in R^n |-> (x, u); pairs a map on the cube with a fixed time value."""
    rows = [tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n)]
    rows.append((0.0,) * n)
    return Affine(tuple(rows), (0.0,) * n + (float(u),))


def drop_time(n: int) -> Affine:
    """(x, u) in R^{n+1} |-> x."""
    rows = [tuple(1.0 if j == i else 0.0 for j in range(n + 1)) for i in range(n)]
    return Affine(tuple(rows), (0.0,) * n)


# ---------------------------------------------------------------------------
# homotopies


@dataclass(frozen=True)
class Homotopy:
    """A map on X x I; the last input coordinate is the time parameter."""

    map: SmoothMap

    @property
    def space_dim(self) -> int:
        return self.map.in_dim - 1

    def slice(self, u: float) -> SmoothMap:
        u = float(u)
        if not 0.0 <= u <= 1.0:
            raise DomainError(f"time value {u!r} outside [0, 1]")
        return Compose(self.map, embed_time(self.space_dim, u))


def constant_homotopy(f: SmoothMap) -> Homotopy:
    """The homotopy that ignores its time coordinate."""
    return Homotopy(Compose(f, drop_time(f.in_dim)))


# ---------------------------------------------------------------------------
# text format


_TOKEN_RE = re.compile(r"[()\[\]]|[^\s()\[\]]+")
_NUM_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_SYM_RE = re.compile(r"[a-z][a-z0-9]*$")
_ATOMS = {"gamma": Gamma, "lambda": Lambda, "recip": Recip, "smashdyn": SmashDyn}
_SIBLINGS = {node.keyword: node for node in (TupleMap, Sum, Product)}
# the text of a node that has no number in it, up to its children's
_HEADS = {
    **{atom: name for name, atom in _ATOMS.items()},
    **{node: "(" + name for name, node in _SIBLINGS.items()},
    Compose: "(compose",
}


class _Syntax(Exception):
    """A parse error at a text offset; ``parse_map`` adds line and column."""


@contextmanager
def _within(name: str):
    """Prefixes the dimension and domain errors raised while building a form."""
    try:
        yield
    except (DimensionError, DomainError) as exc:
        raise type(exc)(f"in ({name} ...): {exc}") from exc


def _read(tok, at, rest):
    """The expression that starts with token ``tok`` at offset ``at``.

    Returns ``(kind, value, offset)``, kind one of list, vec, num and sym.
    ``rest`` yields the following ``(token, offset)`` pairs and ends with
    ``(None, end of the last token)``.
    """
    if tok in ("(", "["):
        close = ")" if tok == "(" else "]"
        items = []
        for nxt, pos in rest:
            if nxt == close:
                return ("list" if tok == "(" else "vec", items, at)
            if nxt is None:
                raise _Syntax(f"missing {close!r}", pos)
            items.append(_read(nxt, pos, rest))
    if tok is None:
        raise _Syntax("unexpected end of input", at)
    if tok in (")", "]"):
        raise _Syntax(f"unexpected {tok!r}", at)
    if _NUM_RE.match(tok):
        return ("num", float(tok), at)
    if _SYM_RE.match(tok):
        return ("sym", tok, at)
    raise _Syntax(f"bad token {tok!r}", at)


def _num(ast, what: str) -> float:
    kind, value, at = ast
    if kind != "num":
        raise _Syntax(f"expected a number for {what}", at)
    return value


def _int(ast, what: str) -> int:
    value = _num(ast, what)
    if not value.is_integer():
        raise _Syntax(f"expected an integer for {what}, got {value!r}", ast[2])
    return int(value)


def _row(ast, what: str, at: int) -> tuple[float, ...]:
    """The numbers of one bracket vector of the affine form at offset ``at``."""
    if ast[0] != "vec":
        raise _Syntax("affine matrix must be a vector of row vectors", at)
    return tuple(_num(v, what) for v in ast[1])


def _form(ast):
    """Check one map form: ``(minimal input dimension, exact?, builder)``.

    Shape and arity errors are raised here.  ``builder(n)`` builds the node
    on input dimension ``n``; it checks the form's numbers and prefixes the
    dimension and domain errors with the form's name.  The outer map of a
    ``compose`` is checked only when its node is built, once the inner
    map's output dimension is known.  A nesting level costs one frame in
    each phase.
    """
    kind, val, at = ast
    if kind == "sym" and val in _ATOMS:
        atom = _ATOMS[val]
        return atom.in_dim, True, lambda n: atom()
    if kind != "list":
        what = {"num": "bare number", "vec": "bracket vector"}.get(kind)
        raise _Syntax(f"{what} cannot be a map" if what else f"unknown atom {val!r}", at)
    if not val or val[0][0] != "sym":
        raise _Syntax("expected a keyword after '('", at)
    name, args = val[0][1], val[1:]
    if name in ("coord", "project"):
        if len(args) != 1:
            raise _Syntax(f"{name} takes one index", at)
        index = _int(args[0], f"{name} index")

        def build(n):
            with _within(name):
                return Coord(index, n)

        return index, False, build
    if name == "const":
        if not args:
            raise _Syntax("const needs at least one value", at)

        def build(n):
            with _within(name):
                return Const(tuple(_num(a, "const value") for a in args), n)

        return 1, False, build
    if name == "affine":
        if len(args) != 2 or args[0][0] != "vec" or args[1][0] != "vec":
            raise _Syntax("affine takes [rows] [offset]", at)
        rows = args[0][1]
        if not rows or rows[0][0] != "vec":
            raise _Syntax("affine matrix must be a vector of row vectors", at)

        def build(n):
            with _within(name):
                matrix = tuple(_row(row, "matrix entry", at) for row in rows)
                return Affine(matrix, _row(args[1], "offset entry", at))

        return len(rows[0][1]), True, build
    if name == "smash":
        if len(args) not in (2, 3):
            raise _Syntax("smash takes sigma tau [map]", at)
        m, exact, inner = _form(args[2]) if len(args) == 3 else (1, True, None)

        def build(n):
            with _within(name):
                sigma, tau = _num(args[0], "smash sigma"), _num(args[1], "smash tau")
                node = Smash(SmashParams(sigma, tau))
                return node if inner is None else Compose(node, inner(n))

        return m, exact, build
    if name == "compose" or (name in _ATOMS and name != "smashdyn"):
        # (lambda f) is (compose lambda f), and so on for the other atoms
        if name == "compose" and len(args) != 2:
            raise _Syntax("compose takes two maps", at)
        if name != "compose" and len(args) != 1:
            raise _Syntax(f"({name} f) takes one map", at)
        m, exact, inner = _form(args[-1])
        outer_ast = args[0] if name == "compose" else val[0]

        def build(n):
            with _within(name):
                f = inner(n)
                k = f.out_dim
                m_out, exact_out, outer = _form(outer_ast)
                if exact_out and m_out != k:
                    raise DimensionError(f"compose: outer expects {m_out} inputs, inner produces {k}")
                if m_out > k:
                    raise DimensionError(
                        f"compose: outer needs at least {m_out} inputs, inner produces {k}"
                    )
                return Compose(outer(k), f)

        return m, exact, build
    # the sibling forms: the children must agree on one input dimension
    kids, breaks = args, ()
    if name == "piece":
        if len(args) < 3 or args[1][0] != "list":
            raise _Syntax("piece takes axis (breaks) and maps", at)
        axis = _int(args[0], "piece axis")
        kids, breaks = args[2:], args[1][1]
        make = lambda bs, pieces: PiecewiseAxis(axis, bs, pieces)
    elif name == "smashdyn":
        if len(args) != 3:
            raise _Syntax("(smashdyn t sigma tau) takes three maps", at)
        make = lambda _, ts: Compose(SmashDyn(), TupleMap(ts))
    elif name in _SIBLINGS:
        if not args:
            raise _Syntax(f"{name} needs at least one map", at)
        make = lambda _, cs, node=_SIBLINGS[name]: node(cs)
    else:
        raise _Syntax(f"unknown form {name!r}", at)
    ms, fixed, builders = [], set(), []
    for kid in kids:
        m, exact, b = _form(kid)
        ms.append(m)
        builders.append(b)
        if exact:
            fixed.add(m)
    if len(fixed) > 1:
        raise _Syntax(f"children demand different input dimensions {sorted(fixed)}", at)
    m, exact = max(ms), bool(fixed)
    if exact:
        (m_fixed,) = fixed
        if m > m_fixed:
            raise _Syntax(f"child needs at least {m} inputs but siblings fix {m_fixed}", at)
        m = m_fixed
    if name == "piece":
        if exact and axis > m:
            raise _Syntax(f"piece axis {axis} exceeds dimension {m}", at)
        m = max(m, axis)

    def build(n):
        with _within(name):
            bs = tuple(_num(b, "breakpoint") for b in breaks)
            built = []
            for b in builders:
                built.append(b(n))
            return make(bs, tuple(built))

    return m, exact, build


def parse_map(text: str) -> SmoothMap:
    """Parse the canonical s-expression format into a dimension-checked tree.

    Text nested deeper than the recursion limit allows raises ``ParseError``.
    """
    tokens = ((m.group(), m.start()) for m in _TOKEN_RE.finditer(text))
    rest = chain(tokens, [(None, len(text.rstrip()))])
    try:
        ast = _read(*next(rest), rest)
        tok, at = next(rest)
        if tok is not None:
            raise _Syntax(f"trailing input {tok!r}", at)
        m, _, build = _form(ast)
        return build(max(m, 1))
    except _Syntax as exc:
        message, at = exc.args
        line = text.count("\n", 0, at) + 1
        raise ParseError(message, line, at - text.rfind("\n", 0, at)) from None
    except RecursionError:
        raise ParseError("nested too deeply", 1, 1) from None


def _fmt(v: float) -> str:
    return repr(float(v))


def serialize_map(f: SmoothMap) -> str:
    """Canonical text for a tree: lowercase keywords, single spaces.

    The walk keeps its own stack of nodes and pending text: it costs no
    frame per level.
    """
    parts, todo = [], [f]
    while todo:
        f = todo.pop()
        if isinstance(f, str):
            parts.append(f)
            continue
        if type(f) in _HEADS:
            parts.append(_HEADS[type(f)])
        elif isinstance(f, Const):
            parts.append("(const " + " ".join(_fmt(v) for v in f.values) + ")")
        elif isinstance(f, Coord):
            parts.append(f"(coord {f.index})")
        elif isinstance(f, Affine):
            rows = " ".join("[" + " ".join(_fmt(v) for v in row) + "]" for row in f.matrix)
            parts.append(f"(affine [{rows}] [" + " ".join(_fmt(v) for v in f.offset) + "])")
        elif isinstance(f, Smash):
            parts.append(f"(smash {_fmt(f.params.sigma)} {_fmt(f.params.tau)})")
        elif isinstance(f, PiecewiseAxis):
            parts.append(f"(piece {f.axis} (" + " ".join(_fmt(b) for b in f.breakpoints) + ")")
        else:
            raise TypeError(f"cannot serialize {type(f).__name__}")
        if f._kids:  # each child after a space, then the closing parenthesis
            todo.append(")")
            for kid in reversed(f._kids):
                todo += (kid, " ")
    return "".join(parts)
