"""Combinator trees for smooth maps R^n -> R^m.

A map is an immutable tree of primitive nodes (coordinates, affine maps,
sums, products, tuples, composition, the scalar kernels, and a piecewise
node that branches on one input coordinate).  Trees evaluate pointwise or
on batches of points; evaluation is exact recursion over the nodes with
no interpolation.  A canonical s-expression text format round-trips every
tree.

Two primitives take kernel parameters from their inputs instead of from
construction-time constants: ``SmashDyn`` evaluates the smash kernel at
``(t, sigma, tau)`` read off its three input coordinates, and ``Recip``
is 1/x on positive reals.  The retraction and extension constructions
modulate their band widths along the homotopy parameter, which cannot be
expressed with constant-parameter nodes alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace as _dc_replace
from typing import ClassVar

import numpy as np

from .errors import DimensionError, DomainError, ParseError
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
    "Clamp01",
    "PiecewiseAxis",
    "Homotopy",
    "unit_box",
    "const",
    "coord",
    "affine",
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
    "fd_partial",
    "fd_partial_refined",
    "constant_homotopy",
    "parse_map",
    "serialize_map",
]

DOMAIN_TOL = 1e-12


def unit_box(n: int) -> tuple[tuple[float, float], ...]:
    return tuple((0.0, 1.0) for _ in range(n))


def _eval(node: "SmoothMap", X: np.ndarray, memo: dict) -> np.ndarray:
    key = (id(node), id(X))
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    out = node._apply(X, memo)
    memo[key] = (X, out)  # keep X alive so ids stay unique
    return out


@dataclass(frozen=True)
class SmoothMap:
    """Base node.  ``domain`` restricts evaluation to a box when set.

    ``in_dim`` and ``out_dim`` are fixed when a node is built: leaf nodes of
    fixed arity carry them as class constants, the others set them in
    ``__post_init__``.  They are not dataclass fields, so equality, hashing
    and ``repr`` see only the tree itself.
    """

    domain: tuple[tuple[float, float], ...] | None = field(default=None, kw_only=True)
    in_dim: ClassVar[int]
    out_dim: ClassVar[int]

    def _set_dims(self, in_dim: int, out_dim: int) -> None:
        object.__setattr__(self, "in_dim", in_dim)
        object.__setattr__(self, "out_dim", out_dim)

    def _apply(self, X: np.ndarray, memo: dict) -> np.ndarray:
        raise NotImplementedError

    def on_unit_box(self) -> "SmoothMap":
        return _dc_replace(self, domain=unit_box(self.in_dim))

    def without_domain(self) -> "SmoothMap":
        return _dc_replace(self, domain=None)

    def eval_many(self, pts) -> np.ndarray:
        X = np.asarray(pts, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.in_dim:
            raise DimensionError(
                f"expected points of shape (N, {self.in_dim}), got {X.shape}"
            )
        if not np.all(np.isfinite(X)):
            raise DomainError("points must be finite")
        if self.domain is not None:
            lo = np.array([iv[0] for iv in self.domain])
            hi = np.array([iv[1] for iv in self.domain])
            if np.any(X < lo - DOMAIN_TOL) or np.any(X > hi + DOMAIN_TOL):
                bad = np.argmax(np.max(np.maximum(lo - X, X - hi), axis=1))
                raise DomainError(
                    f"point {tuple(X[bad])} outside declared domain box"
                )
            X = np.clip(X, lo, hi)
        return _eval(self, X, {})

    def eval(self, point) -> np.ndarray:
        P = np.asarray(point, dtype=float).reshape(1, -1)
        return self.eval_many(P)[0]


@dataclass(frozen=True)
class Const(SmoothMap):
    values: tuple[float, ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise DimensionError("const needs at least one component")
        if self.dim < 1:
            raise DimensionError("const in_dim must be >= 1")
        self._set_dims(self.dim, len(self.values))

    def _apply(self, X, memo):
        return np.broadcast_to(np.array(self.values), (len(X), len(self.values)))


@dataclass(frozen=True)
class Coord(SmoothMap):
    """Selects input coordinate ``index`` (1-based); ``(project k)`` reads as this."""

    index: int
    dim: int

    def __post_init__(self):
        if not 1 <= self.index <= self.dim:
            raise DimensionError(f"coord {self.index} out of range 1..{self.dim}")
        self._set_dims(self.dim, 1)

    def _apply(self, X, memo):
        return X[:, self.index - 1 : self.index]


@dataclass(frozen=True)
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
        self._set_dims(cols, len(m))

    def _apply(self, X, memo):
        return X @ np.array(self.matrix).T + np.array(self.offset)


def _broadcast_out(children, keyword):
    outs = {c.out_dim for c in children}
    m = max(outs)
    if not outs <= {1, m}:
        raise DimensionError(f"{keyword}: children out_dims {sorted(outs)} incompatible")
    return m


def _common_in(children, keyword):
    ins = {c.in_dim for c in children}
    if len(ins) != 1:
        raise DimensionError(f"{keyword}: children in_dims {sorted(ins)} differ")
    return ins.pop()


@dataclass(frozen=True)
class Sum(SmoothMap):
    children: tuple[SmoothMap, ...]

    def __post_init__(self):
        if not self.children:
            raise DimensionError("sum needs at least one child")
        self._set_dims(
            _common_in(self.children, "sum"), _broadcast_out(self.children, "sum")
        )

    def _apply(self, X, memo):
        acc = np.zeros((len(X), self.out_dim))
        for c in self.children:
            acc = acc + _eval(c, X, memo)
        return acc


@dataclass(frozen=True)
class Product(SmoothMap):
    children: tuple[SmoothMap, ...]

    def __post_init__(self):
        if not self.children:
            raise DimensionError("prod needs at least one child")
        self._set_dims(
            _common_in(self.children, "prod"), _broadcast_out(self.children, "prod")
        )

    def _apply(self, X, memo):
        acc = np.ones((len(X), self.out_dim))
        for c in self.children:
            acc = acc * _eval(c, X, memo)
        return acc


@dataclass(frozen=True)
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

    def _apply(self, X, memo):
        return _eval(self.outer, _eval(self.inner, X, memo), memo)


@dataclass(frozen=True)
class TupleMap(SmoothMap):
    children: tuple[SmoothMap, ...]

    def __post_init__(self):
        if not self.children:
            raise DimensionError("tuple needs at least one child")
        self._set_dims(
            _common_in(self.children, "tuple"), sum(c.out_dim for c in self.children)
        )

    def _apply(self, X, memo):
        return np.concatenate([_eval(c, X, memo) for c in self.children], axis=1)


@dataclass(frozen=True)
class Gamma(SmoothMap):
    in_dim = out_dim = 1

    def _apply(self, X, memo):
        return gamma_many(X[:, 0]).reshape(-1, 1)


@dataclass(frozen=True)
class Lambda(SmoothMap):
    in_dim = out_dim = 1

    def _apply(self, X, memo):
        return lambda_many(X[:, 0]).reshape(-1, 1)


@dataclass(frozen=True)
class Smash(SmoothMap):
    params: SmashParams

    in_dim = out_dim = 1

    def _apply(self, X, memo):
        return smash(X[:, 0], self.params.sigma, self.params.tau).reshape(-1, 1)


@dataclass(frozen=True)
class SmashDyn(SmoothMap):
    """Smash kernel with runtime parameters: inputs are (t, sigma, tau)."""

    in_dim = 3
    out_dim = 1

    def _apply(self, X, memo):
        return smash(X[:, 0], X[:, 1], X[:, 2]).reshape(-1, 1)


@dataclass(frozen=True)
class Recip(SmoothMap):
    """1/x on strictly positive inputs."""

    in_dim = out_dim = 1

    def _apply(self, X, memo):
        x = X[:, 0]
        if np.any(x <= 0.0):
            raise DomainError("recip requires strictly positive input")
        return (1.0 / x).reshape(-1, 1)


@dataclass(frozen=True)
class Clamp01(SmoothMap):
    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError("clamp01 dimension must be >= 1")
        self._set_dims(self.dim, self.dim)

    def _apply(self, X, memo):
        return np.clip(X, 0.0, 1.0)


@dataclass(frozen=True)
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

    def _apply(self, X, memo):
        t = X[:, self.axis - 1]
        idx = np.searchsorted(np.array(self.breakpoints), t, side="right")
        out = np.empty((len(X), self.out_dim))
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if np.any(mask):
                out[mask] = _eval(piece, X[mask], memo)
        return out


# ---------------------------------------------------------------------------
# builders


def const(values, in_dim: int) -> Const:
    if np.isscalar(values):
        values = (values,)
    return Const(tuple(values), in_dim)


def coord(index: int, n: int) -> Coord:
    return Coord(index, n)


def affine(matrix, offset) -> Affine:
    return Affine(tuple(tuple(row) for row in matrix), tuple(offset))


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

    def __post_init__(self):
        if self.map.in_dim < 1:
            raise DimensionError("homotopy needs at least the time coordinate")

    @property
    def space_dim(self) -> int:
        return self.map.in_dim - 1

    def slice(self, u: float) -> SmoothMap:
        u = float(u)
        if not -DOMAIN_TOL <= u <= 1.0 + DOMAIN_TOL:
            raise DomainError(f"time value {u!r} outside [0, 1]")
        u = min(1.0, max(0.0, u))
        n = self.space_dim
        return Compose(self.map.without_domain(), embed_time(n, u)).on_unit_box()


def constant_homotopy(f: SmoothMap) -> Homotopy:
    """The homotopy that ignores its time coordinate."""
    n = f.in_dim
    return Homotopy(Compose(f.without_domain(), drop_time(n)).on_unit_box())


# ---------------------------------------------------------------------------
# finite differences


def _in_domain(f: SmoothMap, P: np.ndarray) -> bool:
    if f.domain is None:
        return True
    return all(
        lo - DOMAIN_TOL <= P[i] <= hi + DOMAIN_TOL for i, (lo, hi) in enumerate(f.domain)
    )


def fd_partial(f: SmoothMap, P, axis: int, h: float = 1e-4) -> np.ndarray:
    """Finite-difference partial derivative along ``axis`` (1-based).

    Central difference when both offsets stay in the domain box, one-sided
    at the boundary.
    """
    if h <= 0:
        raise DomainError(f"step must be positive, got {h!r}")
    P = np.asarray(P, dtype=float)
    if P.shape != (f.in_dim,):
        raise DimensionError(f"point shape {P.shape} against in_dim {f.in_dim}")
    if not 1 <= axis <= f.in_dim:
        raise DimensionError(f"axis {axis} out of range 1..{f.in_dim}")
    e = np.zeros_like(P)
    e[axis - 1] = h
    fwd_ok = _in_domain(f, P + e)
    bwd_ok = _in_domain(f, P - e)
    if fwd_ok and bwd_ok:
        return (f.eval(P + e) - f.eval(P - e)) / (2.0 * h)
    if fwd_ok:
        return (f.eval(P + e) - f.eval(P)) / h
    if bwd_ok:
        return (f.eval(P) - f.eval(P - e)) / h
    raise DomainError(f"step {h} does not fit in the domain box at {tuple(P)}")


def fd_partial_refined(f: SmoothMap, P, axis: int, h: float = 1e-4) -> np.ndarray:
    """Richardson-refined finite difference: (4 D(h/2) - D(h)) / 3."""
    d1 = fd_partial(f, P, axis, h)
    d2 = fd_partial(f, P, axis, 0.5 * h)
    return (4.0 * d2 - d1) / 3.0


# ---------------------------------------------------------------------------
# text format


_TOKEN_RE = re.compile(r"[()\[\]]|[^\s()\[\]]+")
_NUM_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_SYM_RE = re.compile(r"[a-z][a-z0-9]*$")


def _tokenize(text: str):
    tokens = []
    line = 1
    col = 1
    i = 0
    for m in _TOKEN_RE.finditer(text):
        for ch in text[i : m.start()]:
            if ch == "\n":
                line += 1
                col = 1
            elif not ch.isspace():
                raise ParseError(f"unexpected character {ch!r}", line, col)
            else:
                col += 1
        i = m.end()
        tok = m.group()
        tokens.append((tok, line, col))
        col += len(tok)
    tokens.append((None, line, col))
    return tokens


class _Reader:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def read(self):
        tok, line, col = self.next()
        if tok is None:
            raise ParseError("unexpected end of input", line, col)
        if tok == "(":
            items = []
            while True:
                nxt, l2, c2 = self.peek()
                if nxt is None:
                    raise ParseError("missing ')'", l2, c2)
                if nxt == ")":
                    self.next()
                    return ("list", items, line, col)
                items.append(self.read())
        if tok == "[":
            items = []
            while True:
                nxt, l2, c2 = self.peek()
                if nxt is None:
                    raise ParseError("missing ']'", l2, c2)
                if nxt == "]":
                    self.next()
                    return ("vec", items, line, col)
                items.append(self.read())
        if tok in (")", "]"):
            raise ParseError(f"unexpected {tok!r}", line, col)
        if _NUM_RE.match(tok):
            return ("num", float(tok), line, col)
        if _SYM_RE.match(tok):
            return ("sym", tok, line, col)
        raise ParseError(f"bad token {tok!r}", line, col)


_BARE_ATOMS = {"gamma", "lambda", "clamp01", "smashdyn", "recip"}
_KEYWORDS = _BARE_ATOMS | {
    "coord",
    "const",
    "project",
    "smash",
    "compose",
    "tuple",
    "sum",
    "prod",
    "affine",
    "piece",
}


def _expect_num(ast, what):
    if ast[0] != "num":
        raise ParseError(f"expected a number for {what}", ast[2], ast[3])
    return ast[1]


def _expect_int(ast, what):
    v = _expect_num(ast, what)
    if not float(v).is_integer():
        raise ParseError(f"expected an integer for {what}, got {v!r}", ast[2], ast[3])
    return int(v)


def _head(ast):
    """(keyword, args, line, col) for a list form."""
    kind, items, line, col = ast
    if not items or items[0][0] != "sym":
        raise ParseError("expected a keyword after '('", line, col)
    return items[0][1], items[1:], line, col


def _min_in(ast) -> tuple[int, bool]:
    """Minimal input dimension of a form and whether it is exact."""
    kind = ast[0]
    if kind == "num":
        raise ParseError("bare number cannot be a map", ast[2], ast[3])
    if kind == "vec":
        raise ParseError("bracket vector cannot be a map", ast[2], ast[3])
    if kind == "sym":
        name = ast[1]
        if name == "smashdyn":
            return 3, True
        if name in ("gamma", "lambda", "recip"):
            return 1, True
        if name == "clamp01":
            return 1, False
        raise ParseError(f"unknown atom {name!r}", ast[2], ast[3])
    name, args, line, col = _head(ast)
    if name not in _KEYWORDS:
        raise ParseError(f"unknown form {name!r}", line, col)
    if name in ("coord", "project"):
        if len(args) != 1:
            raise ParseError(f"{name} takes one index", line, col)
        return _expect_int(args[0], f"{name} index"), False
    if name == "const":
        if not args:
            raise ParseError("const needs at least one value", line, col)
        return 1, False
    if name == "affine":
        if len(args) != 2 or args[0][0] != "vec" or args[1][0] != "vec":
            raise ParseError("affine takes [rows] [offset]", line, col)
        rows = args[0][1]
        if not rows or rows[0][0] != "vec":
            raise ParseError("affine matrix must be a vector of row vectors", line, col)
        return len(rows[0][1]), True
    if name == "smash":
        if len(args) == 2:
            return 1, True
        if len(args) == 3:
            return _min_in(args[2])
        raise ParseError("smash takes sigma tau [map]", line, col)
    if name in ("gamma", "lambda", "recip", "clamp01"):
        if len(args) != 1:
            raise ParseError(f"({name} f) takes one map", line, col)
        return _min_in(args[0])
    if name == "smashdyn":
        if len(args) != 3:
            raise ParseError("(smashdyn t sigma tau) takes three maps", line, col)
        return _unify([_min_in(a) for a in args], line, col)
    if name == "compose":
        if len(args) != 2:
            raise ParseError("compose takes two maps", line, col)
        return _min_in(args[1])
    if name in ("tuple", "sum", "prod"):
        if not args:
            raise ParseError(f"{name} needs at least one map", line, col)
        return _unify([_min_in(a) for a in args], line, col)
    if name == "piece":
        if len(args) < 3 or args[1][0] != "list":
            raise ParseError("piece takes axis (breaks) and maps", line, col)
        axis = _expect_int(args[0], "piece axis")
        m, exact = _unify([_min_in(a) for a in args[2:]], line, col)
        if exact and axis > m:
            raise ParseError(f"piece axis {axis} exceeds dimension {m}", line, col)
        return (max(m, axis), exact)
    raise ParseError(f"unknown form {name!r}", line, col)


def _unify(pairs, line, col) -> tuple[int, bool]:
    exact_vals = {m for m, e in pairs if e}
    if len(exact_vals) > 1:
        raise ParseError(
            f"children demand different input dimensions {sorted(exact_vals)}", line, col
        )
    best = max(m for m, _ in pairs)
    if exact_vals:
        val = exact_vals.pop()
        if best > val:
            raise ParseError(
                f"child needs at least {best} inputs but siblings fix {val}", line, col
            )
        return val, True
    return best, False


def _build(ast, n: int) -> SmoothMap:
    kind = ast[0]
    if kind == "sym":
        name = ast[1]
        if name == "gamma":
            _check_exact(1, n, name, ast)
            return Gamma()
        if name == "lambda":
            _check_exact(1, n, name, ast)
            return Lambda()
        if name == "recip":
            _check_exact(1, n, name, ast)
            return Recip()
        if name == "smashdyn":
            _check_exact(3, n, name, ast)
            return SmashDyn()
        if name == "clamp01":
            return Clamp01(n)
        raise ParseError(f"unknown atom {name!r}", ast[2], ast[3])
    name, args, line, col = _head(ast)
    try:
        if name in ("coord", "project"):
            return Coord(_expect_int(args[0], f"{name} index"), n)
        if name == "const":
            return Const(tuple(_expect_num(a, "const value") for a in args), n)
        if name == "affine":
            rows = tuple(
                tuple(_expect_num(v, "matrix entry") for v in row[1])
                for row in args[0][1]
            )
            offset = tuple(_expect_num(v, "offset entry") for v in args[1][1])
            node = Affine(rows, offset)
            if node.in_dim != n:
                raise DimensionError(
                    f"affine expects {node.in_dim} inputs, context needs {n}"
                )
            return node
        if name == "smash":
            params = SmashParams(
                _expect_num(args[0], "smash sigma"), _expect_num(args[1], "smash tau")
            )
            if len(args) == 2:
                _check_exact(1, n, name, ast)
                return Smash(params)
            inner = _build(args[2], n)
            return Compose(Smash(params), inner)
        if name in ("gamma", "lambda", "recip"):
            inner = _build(args[0], n)
            outer = {"gamma": Gamma, "lambda": Lambda, "recip": Recip}[name]()
            return Compose(outer, inner)
        if name == "clamp01":
            inner = _build(args[0], n)
            return Compose(Clamp01(inner.out_dim), inner)
        if name == "smashdyn":
            return Compose(SmashDyn(), TupleMap(tuple(_build(a, n) for a in args)))
        if name == "compose":
            inner = _build(args[1], n)
            m_out, exact = _min_in(args[0])
            k = inner.out_dim
            if exact and m_out != k:
                raise DimensionError(
                    f"compose: outer expects {m_out} inputs, inner produces {k}"
                )
            if m_out > k:
                raise DimensionError(
                    f"compose: outer needs at least {m_out} inputs, inner produces {k}"
                )
            return Compose(_build(args[0], k), inner)
        if name == "tuple":
            return TupleMap(tuple(_build(a, n) for a in args))
        if name == "sum":
            return Sum(tuple(_build(a, n) for a in args))
        if name == "prod":
            return Product(tuple(_build(a, n) for a in args))
        if name == "piece":
            axis = _expect_int(args[0], "piece axis")
            breaks = tuple(_expect_num(b, "breakpoint") for b in args[1][1])
            pieces = tuple(_build(a, n) for a in args[2:])
            return PiecewiseAxis(axis, breaks, pieces)
    except (DimensionError, DomainError) as exc:
        raise type(exc)(f"in ({name} ...): {exc}") from exc
    raise ParseError(f"unknown form {name!r}", line, col)


def _check_exact(need, n, name, ast):
    if need != n:
        raise DimensionError(f"{name} expects {need} inputs, context needs {n}")


def parse_map(text: str) -> SmoothMap:
    """Parse the canonical s-expression format into a dimension-checked tree."""
    reader = _Reader(_tokenize(text))
    ast = reader.read()
    trailing, line, col = reader.peek()
    if trailing is not None:
        raise ParseError(f"trailing input {trailing!r}", line, col)
    n, _ = _min_in(ast)
    return _build(ast, max(n, 1))


def _fmt(v: float) -> str:
    return repr(float(v))


def serialize_map(f: SmoothMap) -> str:
    """Canonical text for a tree: lowercase keywords, single spaces."""
    if isinstance(f, Const):
        return "(const " + " ".join(_fmt(v) for v in f.values) + ")"
    if isinstance(f, Coord):
        return f"(coord {f.index})"
    if isinstance(f, Affine):
        rows = " ".join("[" + " ".join(_fmt(v) for v in row) + "]" for row in f.matrix)
        offset = " ".join(_fmt(v) for v in f.offset)
        return f"(affine [{rows}] [{offset}])"
    if isinstance(f, Sum):
        return "(sum " + " ".join(serialize_map(c) for c in f.children) + ")"
    if isinstance(f, Product):
        return "(prod " + " ".join(serialize_map(c) for c in f.children) + ")"
    if isinstance(f, TupleMap):
        return "(tuple " + " ".join(serialize_map(c) for c in f.children) + ")"
    if isinstance(f, Compose):
        return f"(compose {serialize_map(f.outer)} {serialize_map(f.inner)})"
    if isinstance(f, Gamma):
        return "gamma"
    if isinstance(f, Lambda):
        return "lambda"
    if isinstance(f, Smash):
        return f"(smash {_fmt(f.params.sigma)} {_fmt(f.params.tau)})"
    if isinstance(f, SmashDyn):
        return "smashdyn"
    if isinstance(f, Recip):
        return "recip"
    if isinstance(f, Clamp01):
        return "clamp01"
    if isinstance(f, PiecewiseAxis):
        breaks = " ".join(_fmt(b) for b in f.breakpoints)
        pieces = " ".join(serialize_map(p) for p in f.pieces)
        return f"(piece {f.axis} ({breaks}) {pieces})"
    raise TypeError(f"cannot serialize {type(f).__name__}")
