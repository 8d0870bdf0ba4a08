"""Symbolic shape/dtype abstract interpreter for ``@shape_contract`` bodies.

The static half of the contract engine (:mod:`.contracts` is the
declaration + runtime half).  For every registered contract this module
re-parses the decorated function's source, seeds an abstract environment
from the contract (inputs become symbolic arrays, ``bind`` paths become
symbolic scalars, ``attrs`` describe instance state), and walks the body
propagating shapes through the numpy idioms the repo actually uses:
reshape, sum-over-axis, fancy gather, concatenate, slicing, broadcasting,
``@``, ``astype``.  Dimension equalities — reshape conservation, return
shapes, call-site wiring between decorated functions — are discharged
with :func:`..symbolic.prove_product_equal`; violations surface as
standard ``repro.lint/1`` findings (engine ``"shape"``).

The interpreter is deliberately *optimistic*: anything it cannot model
(list comprehensions, un-contracted helpers, data-dependent sizes)
becomes ``?``/opaque and never produces a finding.  A finding therefore
means the declared law is **provably** broken for some positive
assignment of the symbolic dims — the same standard the kernel race
engine holds itself to.  Two deliberate optimisms are worth naming:
``Arr <op> opaque`` keeps the array's shape (a broadcast against an
unknown operand is assumed conforming), and branch merges prefer the
more-informative value.  Both are sound for *certification* (they can
hide a bug, never invent one).

``check_contracts()`` is the battery entry point wired into
``python -m repro lint``: it imports the core modules, checks every
registered contract, enforces ``REQUIRED_CONTRACTS`` coverage
(``contract-missing``), and guards the seeded negative control — a
contract declared with ``expect_violation=True`` must keep producing a
violation or ``shape-checker-selfcheck`` fires, mirroring the race
detector's naive-histogram control.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .contracts import (
    ANY_DIM,
    Contract,
    Dim,
    DimLike,
    ShapeSpec,
    _AnyDim,
    registered_contracts,
)
from .findings import Finding, Suppressions
from .rules import Rule
from .symbolic import prove_product_equal

__all__ = [
    "REQUIRED_CONTRACTS",
    "SHAPE_RULES",
    "check_contract",
    "check_contracts",
]

SHAPE_RULES: dict[str, Rule] = {
    "shape-contract-violation": Rule(
        id="shape-contract-violation",
        severity="error",
        summary="an array provably violates a declared @shape_contract",
        rationale=(
            "the pipeline's dimensional laws ((S,n) signals -> (S,L,B) "
            "buckets -> (S*L,B) FFT rows -> S*n vote keys) are the "
            "algorithm; a shape that drifts past them corrupts results "
            "silently instead of raising"
        ),
    ),
    "dtype-drift": Rule(
        id="dtype-drift",
        severity="error",
        summary="a value provably violates a declared contract dtype",
        rationale=(
            "complex128 in the bucket path and int64 index arrays are "
            "load-bearing: a float64 bucket row or int32 gather silently "
            "changes numerics and memory traffic"
        ),
    ),
    "contract-missing": Rule(
        id="contract-missing",
        severity="error",
        summary="a public core/ pipeline function has no @shape_contract",
        rationale=(
            "the certified surface is an explicit list "
            "(REQUIRED_CONTRACTS); silently dropping a contract would "
            "shrink it without review"
        ),
    ),
    "shape-checker-selfcheck": Rule(
        id="shape-checker-selfcheck",
        severity="error",
        summary="the shape checker failed its own negative control",
        rationale=(
            "a checker that stops flagging the seeded transposed reshape "
            "(or crashes) cannot be trusted to certify anything; broken "
            "tooling must not produce a green lint"
        ),
    ),
}

#: Dotted names that MUST carry a contract (the tentpole's public surface).
REQUIRED_CONTRACTS: tuple[str, ...] = (
    "repro.core.workspace.PlanWorkspace.bin_fused",
    "repro.core.workspace.PlanWorkspace.bin_fused_stack",
    "repro.core.batch.as_signal_stack",
    "repro.core.sfft.run_stack_pipeline",
    "repro.core.binning.bin_serial",
    "repro.core.binning.bin_vectorized",
    "repro.core.binning.bin_loop_partition",
    "repro.core.recovery.recover_locations_stack",
    "repro.core.estimation.estimate_values_stack",
    "repro.core.executor.ShardedExecutor.run",
    "repro.core.shm.SharedArraySpec.as_array",
)

#: Modules imported so their decorators populate the registry.
_CONTRACT_MODULES: tuple[str, ...] = (
    "repro.core.workspace",
    "repro.core.batch",
    "repro.core.sfft",
    "repro.core.binning",
    "repro.core.recovery",
    "repro.core.estimation",
    "repro.core.cutoff",
    "repro.core.subsampled",
    "repro.core.permutation",
    "repro.core.executor",
    "repro.core.shm",
)


# ---------------------------------------------------------------------------
# Abstract values


class _Opaque:
    _instance: "_Opaque | None" = None

    def __new__(cls) -> "_Opaque":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<opaque>"


OPAQUE = _Opaque()


@dataclass(frozen=True)
class Arr:
    """A numpy array of known (symbolic) shape and optionally dtype."""

    shape: tuple[DimLike, ...]
    dtype: str | None = None

    def __repr__(self) -> str:
        dims = ", ".join(repr(d) for d in self.shape)
        return f"Arr(({dims}){'' if self.dtype is None else ':' + self.dtype})"


@dataclass(frozen=True)
class Sym:
    """A non-negative integer scalar with a symbolic value."""

    dim: DimLike

    def __repr__(self) -> str:
        return f"Sym({self.dim!r})"


@dataclass(frozen=True)
class Num:
    """A non-integer numeric scalar (float/complex literal or result)."""

    dtype: str


@dataclass(frozen=True)
class Pth:
    """An un-modeled object reachable by a dotted path from an argument.

    Attribute walks extend the path; ``bind`` and ``attrs`` lookups turn
    a path into a :class:`Sym` or :class:`Arr` the moment it matches.
    """

    path: str


@dataclass(frozen=True)
class Shp:
    """The ``.shape`` tuple of a known array."""

    dims: tuple[DimLike, ...]


@dataclass(frozen=True)
class Tup:
    items: tuple[Any, ...]


@dataclass(frozen=True)
class Lst:
    items: tuple[Any, ...]


@dataclass(frozen=True)
class Dt:
    """A dtype object (``np.complex128`` used as a value)."""

    name: str


class _NpMod:
    """The ``np`` module object itself."""


NP_MOD = _NpMod()


@dataclass(frozen=True)
class NpFunc:
    name: str


# ---------------------------------------------------------------------------
# Dim/dtype helpers

_DTYPE_NAMES = {
    "complex128", "complex64", "float64", "float32", "int64", "int32",
    "int16", "int8", "uint8", "uint32", "uint64", "bool_", "bool",
    "intp", "complex", "float", "int",
}


def _canon_dtype(name: str) -> str:
    return str(np.dtype(name))


def _dims_compatible(a: DimLike, b: DimLike) -> bool:
    """Whether two dims *could* be equal.  False only on a proof of
    inequality (same symbols/different coefficient) or on two fully
    symbolic products with different symbol multisets — the standard that
    keeps the transposed-reshape control flagged while a constant like 0
    (empty-case returns) stays compatible with any symbol."""
    if isinstance(a, _AnyDim) or isinstance(b, _AnyDim):
        return True
    if a == b:
        return True
    proof = prove_product_equal((a.coeff, a.syms), (b.coeff, b.syms))
    if proof.collision_free:
        return True
    if proof.universal:
        return False
    if not a.syms or not b.syms:
        return True
    return False


def _fold_product(dims: tuple[DimLike, ...]) -> DimLike:
    out = Dim()
    for d in dims:
        if isinstance(d, _AnyDim):
            return ANY_DIM
        out = out.times(d)
    return out


def _render_shape(shape: tuple[DimLike, ...]) -> str:
    return "(" + ", ".join(repr(d) for d in shape) + ")"


def _promote(a: str | None, b: str | None, *, division: bool = False) -> str | None:
    if a is None or b is None:
        return None
    try:
        if division:
            return str(np.result_type(a, b, np.float64))
        return str(np.result_type(a, b))
    except TypeError:
        return None


# ---------------------------------------------------------------------------
# The per-contract body checker


class _BodyChecker:
    def __init__(
        self,
        contract: Contract,
        *,
        relpath: str,
        by_func: dict[str, Contract],
        by_method: dict[str, Contract],
    ) -> None:
        self.contract = contract
        self.relpath = relpath
        self.by_func = by_func
        self.by_method = by_method
        self.findings: list[Finding] = []
        self.globals_syms = contract.symbols()
        # Invert bind: runtime path -> symbol.
        self.inv_bind = {path: sym for sym, path in contract.bind.items()}
        self.attr_vals: dict[str, Any] = {}
        for path, parsed in contract.attr_specs().items():
            if isinstance(parsed, ShapeSpec):
                if parsed.dims is not None:
                    self.attr_vals[path] = Arr(parsed.dims, parsed.dtype)
                else:
                    self.attr_vals[path] = OPAQUE
            else:
                self.attr_vals[path] = Sym(parsed)

    # -- findings ----------------------------------------------------------

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule,
            severity=SHAPE_RULES[rule].severity,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            message=f"{self.contract.key}: {message}",
            engine="shape",
            col=getattr(node, "col_offset", 0),
        ))

    # -- entry -------------------------------------------------------------

    def check(self, fn_node: ast.FunctionDef) -> list[Finding]:
        env: dict[str, Any] = {}
        input_specs = {a.name: a.spec for a in self.contract.inputs}
        for param in fn_node.args.posonlyargs + fn_node.args.args \
                + fn_node.args.kwonlyargs:
            name = param.arg
            spec = input_specs.get(name)
            if spec is not None and spec.dims is not None:
                env[name] = Arr(spec.dims, spec.dtype)
            else:
                env[name] = Pth(name)
        # A bind path that *is* a bare parameter pins that parameter to
        # its symbol (e.g. bind={"B": "B"} on the binners).
        for sym, path in self.contract.bind.items():
            if path in env and isinstance(env[path], Pth):
                env[path] = Sym(Dim(1, (sym,)))
        self._exec_block(fn_node.body, env)
        return self.findings

    # -- statements --------------------------------------------------------

    def _exec_block(self, stmts: list[ast.stmt], env: dict[str, Any]) -> bool:
        """Execute statements; False if the block provably leaves early."""
        for stmt in stmts:
            if isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    self._check_return(stmt, self._eval(stmt.value, env))
                return False
            if isinstance(stmt, (ast.Raise, ast.Break, ast.Continue)):
                return False
            self._exec_stmt(stmt, env)
        return True

    def _exec_stmt(self, stmt: ast.stmt, env: dict[str, Any]) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, value, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                current = env.get(stmt.target.id, OPAQUE)
                env[stmt.target.id] = self._binop(
                    stmt, current, stmt.op, value, inplace=True)
            # Subscript/attribute stores mutate in place; shape unchanged.
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            then_env = dict(env)
            else_env = dict(env)
            then_ok = self._exec_block(stmt.body, then_env)
            else_ok = self._exec_block(stmt.orelse, else_env)
            if then_ok and else_ok:
                merged = self._merge(then_env, else_env)
            elif then_ok:
                merged = then_env
            elif else_ok:
                merged = else_env
            else:
                merged = env
            env.clear()
            env.update(merged)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._exec_for(stmt, env)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            body_env = dict(env)
            self._exec_block(stmt.body, body_env)
            merged = self._merge(env, body_env)
            env.clear()
            env.update(merged)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, value, env)
            self._exec_block(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            body_env = dict(env)
            body_ok = self._exec_block(stmt.body, body_env)
            merged = body_env if body_ok else dict(env)
            for handler in stmt.handlers:
                h_env = dict(env)
                if self._exec_block(handler.body, h_env):
                    merged = self._merge(merged, h_env)
            self._exec_block(stmt.orelse, merged)
            self._exec_block(stmt.finalbody, merged)
            env.clear()
            env.update(merged)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            env[stmt.name] = OPAQUE  # nested closures are not descended
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # Pass/Assert/Import/Global/Nonlocal: no dataflow effect we model.

    def _exec_for(self, stmt: ast.For | ast.AsyncFor, env: dict[str, Any]) -> None:
        iterable = self._eval(stmt.iter, env)
        body_env = dict(env)
        self._bind_loop_target(stmt.target, iterable, stmt.iter, body_env)
        self._exec_block(stmt.body, body_env)
        merged = self._merge(env, body_env)
        self._exec_block(stmt.orelse, merged)
        env.clear()
        env.update(merged)

    def _bind_loop_target(
        self, target: ast.expr, iterable: Any, iter_node: ast.expr,
        env: dict[str, Any],
    ) -> None:
        element: Any = OPAQUE
        if isinstance(iter_node, ast.Call) and \
                isinstance(iter_node.func, ast.Name):
            if iter_node.func.id == "range":
                element = Sym(ANY_DIM)
            elif iter_node.func.id == "enumerate" and \
                    isinstance(target, ast.Tuple) and len(target.elts) == 2:
                inner = self._eval(iter_node.args[0], env) \
                    if iter_node.args else OPAQUE
                self._assign(target.elts[0], Sym(ANY_DIM), env)
                self._assign(target.elts[1], self._element_of(inner), env)
                return
        elif isinstance(iterable, Arr):
            element = self._element_of(iterable)
        elif isinstance(iterable, (Tup, Lst)):
            element = OPAQUE
        self._assign(target, element, env)

    @staticmethod
    def _element_of(value: Any) -> Any:
        if isinstance(value, Arr) and value.shape:
            if len(value.shape) == 1:
                return Num(value.dtype) if value.dtype else OPAQUE
            return Arr(value.shape[1:], value.dtype)
        return OPAQUE

    def _assign(self, target: ast.expr, value: Any, env: dict[str, Any]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            items: tuple[Any, ...] | None = None
            if isinstance(value, Tup):
                items = value.items
            elif isinstance(value, Shp):
                items = tuple(Sym(d) for d in value.dims)
            if items is not None and len(items) == len(target.elts):
                for sub, item in zip(target.elts, items):
                    self._assign(sub, item, env)
            else:
                for sub in target.elts:
                    if not isinstance(sub, ast.Starred):
                        self._assign(sub, OPAQUE, env)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, OPAQUE, env)
        # Subscript/Attribute stores: in-place mutation, shapes unchanged.

    # -- merge -------------------------------------------------------------

    def _merge(self, a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name in set(a) | set(b):
            if name not in a:
                out[name] = b[name]
            elif name not in b:
                out[name] = a[name]
            else:
                out[name] = self._join(a[name], b[name])
        return out

    def _join(self, x: Any, y: Any) -> Any:
        if x == y:
            return x
        # Optimistic: prefer the informative side over opaque.
        if x is OPAQUE or isinstance(x, Pth):
            return y
        if y is OPAQUE or isinstance(y, Pth):
            return x
        if isinstance(x, Arr) and isinstance(y, Arr) \
                and len(x.shape) == len(y.shape):
            dims = tuple(
                dx if (isinstance(dx, Dim) and isinstance(dy, Dim)
                       and dx == dy) else ANY_DIM
                for dx, dy in zip(x.shape, y.shape)
            )
            return Arr(dims, x.dtype if x.dtype == y.dtype else None)
        if isinstance(x, Sym) and isinstance(y, Sym):
            return Sym(x.dim if x.dim == y.dim else ANY_DIM)
        return OPAQUE

    # -- return check ------------------------------------------------------

    def _check_return(self, node: ast.AST, value: Any) -> None:
        out = self.contract.output
        if out.shape_path is not None or not isinstance(value, Arr):
            return
        if out.dims is not None:
            if len(value.shape) != len(out.dims):
                self._emit(
                    "shape-contract-violation", node,
                    f"returns a {len(value.shape)}-D array "
                    f"{_render_shape(value.shape)}, contract declares "
                    f"{out.render_dims()}",
                )
            else:
                for axis, (got, want) in enumerate(
                        zip(value.shape, out.dims)):
                    if not _dims_compatible(got, want):
                        self._emit(
                            "shape-contract-violation", node,
                            f"return axis {axis} is {got!r}, contract "
                            f"declares {want!r} (inferred "
                            f"{_render_shape(value.shape)} vs declared "
                            f"{out.render_dims()})",
                        )
        if out.dtype is not None and not out.dtype.startswith("@") \
                and value.dtype is not None \
                and _canon_dtype(out.dtype) != value.dtype:
            self._emit(
                "dtype-drift", node,
                f"returns dtype {value.dtype}, contract declares "
                f"{_canon_dtype(out.dtype)}",
            )

    # -- expressions -------------------------------------------------------

    def _eval(self, node: ast.expr, env: dict[str, Any]) -> Any:
        if isinstance(node, ast.Name):
            if node.id == "np":
                return NP_MOD
            return env.get(node.id, OPAQUE)
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, bool) or v is None or isinstance(v, str):
                return OPAQUE
            if isinstance(v, int):
                return Sym(Dim(v)) if v >= 0 else Sym(ANY_DIM)
            if isinstance(v, float):
                return Num("float64")
            if isinstance(v, complex):
                return Num("complex128")
            return OPAQUE
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            return self._binop(node, left, node.op, right)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, env)
            if isinstance(node.op, ast.USub):
                if isinstance(operand, Sym):
                    return Sym(ANY_DIM)
                return operand
            if isinstance(node.op, ast.Not):
                return OPAQUE
            return operand
        if isinstance(node, ast.Compare):
            operands = [self._eval(node.left, env)]
            operands += [self._eval(c, env) for c in node.comparators]
            arrs = [o for o in operands if isinstance(o, Arr)]
            if arrs:
                shape = arrs[0].shape
                for other in arrs[1:]:
                    shape = self._broadcast(node, shape, other.shape)
                return Arr(shape, "bool")
            return OPAQUE
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                self._eval(v, env)
            return OPAQUE
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            return self._join(self._eval(node.body, env),
                              self._eval(node.orelse, env))
        if isinstance(node, ast.Tuple):
            return Tup(tuple(self._eval(e, env) for e in node.elts))
        if isinstance(node, ast.List):
            return Lst(tuple(self._eval(e, env) for e in node.elts))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp, ast.Lambda, ast.Dict,
                             ast.JoinedStr, ast.Set)):
            return OPAQUE
        if isinstance(node, ast.Starred):
            self._eval(node.value, env)
            return OPAQUE
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, env)
            self._assign(node.target, value, env)
            return value
        return OPAQUE

    # -- attributes --------------------------------------------------------

    def _eval_attribute(self, node: ast.Attribute, env: dict[str, Any]) -> Any:
        base = self._eval(node.value, env)
        attr = node.attr
        if base is NP_MOD:
            if attr in _DTYPE_NAMES:
                return Dt(_canon_dtype(attr))
            if attr == "pi":
                return Num("float64")
            if attr == "newaxis":
                return OPAQUE
            return NpFunc(attr)
        if isinstance(base, NpFunc):
            return NpFunc(f"{base.name}.{attr}")
        if isinstance(base, Arr):
            if attr == "shape":
                return Shp(base.shape)
            if attr == "size":
                return Sym(_fold_product(base.shape))
            if attr == "ndim":
                return Sym(Dim(len(base.shape)))
            if attr == "T":
                return Arr(tuple(reversed(base.shape)), base.dtype)
            if attr in ("real", "imag"):
                dtype = {"complex128": "float64", "complex64": "float32"}.get(
                    base.dtype or "", base.dtype)
                return Arr(base.shape, dtype)
            if attr == "dtype":
                return Dt(base.dtype) if base.dtype else OPAQUE
            if attr == "flat":
                return Arr((_fold_product(base.shape),), base.dtype)
            return OPAQUE
        if isinstance(base, Pth):
            path = f"{base.path}.{attr}"
            return self._lookup_path(path)
        return OPAQUE

    def _lookup_path(self, path: str) -> Any:
        if path in self.inv_bind:
            return Sym(Dim(1, (self.inv_bind[path],)))
        if path in self.attr_vals:
            return self.attr_vals[path]
        return Pth(path)

    # -- subscripts --------------------------------------------------------

    def _slice_dim(self, node: ast.expr, env: dict[str, Any]) -> DimLike:
        """The length of ``x[lo:hi:step]`` along one axis, if provable."""
        if not isinstance(node, ast.Slice):
            return ANY_DIM
        if node.step is not None:
            return ANY_DIM
        lower_zero = node.lower is None or (
            isinstance(node.lower, ast.Constant) and node.lower.value == 0)
        if not lower_zero:
            return ANY_DIM
        if node.upper is None:
            return ANY_DIM  # full slice handled by caller (keeps axis dim)
        upper = self._eval(node.upper, env)
        # x[:v] keeps length v only when v is a symbolic dim we can trust
        # not to exceed the axis (numpy clips); constants stay opaque.
        if isinstance(upper, Sym) and isinstance(upper.dim, Dim) \
                and upper.dim.syms:
            return upper.dim
        return ANY_DIM

    def _eval_subscript(self, node: ast.Subscript, env: dict[str, Any]) -> Any:
        base = self._eval(node.value, env)
        idx = node.slice
        if isinstance(base, Shp):
            if isinstance(idx, ast.Constant) and isinstance(idx.value, int):
                i = idx.value
                if -len(base.dims) <= i < len(base.dims):
                    return Sym(base.dims[i])
                return Sym(ANY_DIM)
            if isinstance(idx, ast.Slice):
                return OPAQUE
            return Sym(ANY_DIM)
        if isinstance(base, (Tup, Lst)):
            if isinstance(idx, ast.Constant) and isinstance(idx.value, int) \
                    and -len(base.items) <= idx.value < len(base.items):
                return base.items[idx.value]
            return OPAQUE
        if isinstance(base, Pth):
            if isinstance(idx, ast.Constant) and isinstance(idx.value, int) \
                    and idx.value >= 0:
                return self._lookup_path(f"{base.path}[{idx.value}]")
            self._eval_index_parts(idx, env)
            return OPAQUE
        if not isinstance(base, Arr):
            self._eval_index_parts(idx, env)
            return OPAQUE
        parts = idx.elts if isinstance(idx, ast.Tuple) else [idx]
        return self._index_array(node, base, list(parts), env)

    def _eval_index_parts(self, idx: ast.expr, env: dict[str, Any]) -> None:
        for part in (idx.elts if isinstance(idx, ast.Tuple) else [idx]):
            if not isinstance(part, ast.Slice):
                self._eval(part, env)

    def _index_array(
        self, node: ast.AST, base: Arr, parts: list[ast.expr],
        env: dict[str, Any],
    ) -> Any:
        expanded: list[tuple[str, Any, ast.expr | None]] = []
        for part in parts:
            if isinstance(part, ast.Constant) and part.value is Ellipsis:
                return OPAQUE  # `...` is not used in contracted bodies
            if isinstance(part, ast.Constant) and part.value is None:
                expanded.append(("newaxis", None, None))
                continue
            if isinstance(part, ast.Slice):
                full = part.lower is None and part.upper is None \
                    and part.step is None
                expanded.append(("full" if full else "slice", None, part))
                continue
            value = self._eval(part, env)
            if isinstance(value, Arr):
                kind = "mask" if value.dtype == "bool" else "fancy"
                expanded.append((kind, value, part))
            elif isinstance(value, Sym):
                expanded.append(("scalar", value, part))
            else:
                expanded.append(("unknown", value, part))
        axis_kinds = [e for e in expanded if e[0] != "newaxis"]
        if len(axis_kinds) > len(base.shape):
            return OPAQUE
        advanced = [e for e in expanded if e[0] in ("fancy", "scalar",
                                                    "mask", "unknown")]
        has_unknown = any(e[0] == "unknown" for e in expanded)
        if has_unknown:
            return OPAQUE
        # Broadcast the advanced index shapes together.
        adv_shape: tuple[DimLike, ...] | None = None
        for kind, value, _part in advanced:
            if kind == "scalar":
                item: tuple[DimLike, ...] = ()
            elif kind == "mask":
                item = (ANY_DIM,)
            else:
                assert isinstance(value, Arr)
                item = value.shape
            adv_shape = item if adv_shape is None \
                else self._broadcast(node, adv_shape, item)
        # Walk axes: basic parts consume one axis each; a mask consumes
        # as many axes as its ndim (modelled as one here — repo masks are
        # 1-D); trailing unindexed axes are kept.
        basic_dims: list[DimLike] = []
        adv_positions: list[int] = []
        axis = 0
        for kind, value, part in expanded:
            if kind == "newaxis":
                basic_dims.append(Dim(1))
                continue
            if axis >= len(base.shape):
                return OPAQUE
            if kind == "full":
                basic_dims.append(base.shape[axis])
            elif kind == "slice":
                assert isinstance(part, ast.Slice)
                basic_dims.append(self._slice_dim(part, env))
            else:  # advanced: consumes the axis, contributes no basic dim
                adv_positions.append(len(basic_dims))
            axis += 1
        basic_dims.extend(base.shape[axis:])
        if adv_shape is None:
            return Arr(tuple(basic_dims), base.dtype)
        # Advanced parts record len(basic_dims) when seen, so consecutive
        # advanced indices all record the same position; a split pattern
        # (numpy moves the result to the front) records distinct ones.
        contiguous = all(p == adv_positions[0] for p in adv_positions)
        insert_at = adv_positions[0] if contiguous and adv_positions else 0
        dims = (tuple(basic_dims[:insert_at]) + tuple(adv_shape)
                + tuple(basic_dims[insert_at:]))
        return Arr(dims, base.dtype)

    # -- broadcasting and arithmetic --------------------------------------

    def _bcast_dim(self, node: ast.AST, a: DimLike, b: DimLike) -> DimLike:
        if isinstance(a, _AnyDim):
            return b
        if isinstance(b, _AnyDim):
            return a
        if a == Dim(1):
            return b
        if b == Dim(1):
            return a
        if _dims_compatible(a, b):
            return a
        self._emit(
            "shape-contract-violation", node,
            f"broadcast mismatch: dimension {a!r} vs {b!r} cannot be "
            f"equal for any positive assignment",
        )
        return ANY_DIM

    def _broadcast(
        self, node: ast.AST, s1: tuple[DimLike, ...],
        s2: tuple[DimLike, ...],
    ) -> tuple[DimLike, ...]:
        if len(s1) < len(s2):
            s1 = (Dim(1),) * (len(s2) - len(s1)) + s1
        elif len(s2) < len(s1):
            s2 = (Dim(1),) * (len(s1) - len(s2)) + s2
        return tuple(self._bcast_dim(node, a, b) for a, b in zip(s1, s2))

    def _binop(
        self, node: ast.AST, left: Any, op: ast.operator, right: Any,
        *, inplace: bool = False,
    ) -> Any:
        division = isinstance(op, ast.Div)
        if isinstance(op, ast.MatMult):
            if isinstance(left, Arr) and isinstance(right, Arr) \
                    and len(left.shape) == 2 and len(right.shape) == 2:
                if not _dims_compatible(left.shape[1], right.shape[0]):
                    self._emit(
                        "shape-contract-violation", node,
                        f"matmul inner dimensions {left.shape[1]!r} and "
                        f"{right.shape[0]!r} cannot be equal",
                    )
                return Arr((left.shape[0], right.shape[1]),
                           _promote(left.dtype, right.dtype))
            return OPAQUE
        if isinstance(left, Arr) or isinstance(right, Arr):
            dtype: str | None
            if isinstance(left, Arr) and isinstance(right, Arr):
                shape = self._broadcast(node, left.shape, right.shape)
                dtype = _promote(left.dtype, right.dtype, division=division)
                if inplace:
                    shape, dtype = left.shape, left.dtype
                return Arr(shape, dtype)
            arr = left if isinstance(left, Arr) else right
            other = right if isinstance(left, Arr) else left
            dtype = arr.dtype
            if isinstance(other, Num):
                dtype = _promote(arr.dtype, other.dtype, division=division)
            elif isinstance(other, Sym):
                dtype = _promote(arr.dtype, "int64", division=division)
            # other OPAQUE/Pth: keep the array's shape (documented optimism)
            if inplace and isinstance(left, Arr):
                dtype = left.dtype
            return Arr(arr.shape, dtype)
        if isinstance(left, Sym) and isinstance(right, Sym):
            if isinstance(op, ast.Mult):
                if isinstance(left.dim, Dim) and isinstance(right.dim, Dim):
                    return Sym(left.dim.times(right.dim))
                return Sym(ANY_DIM)
            if isinstance(left.dim, Dim) and isinstance(right.dim, Dim) \
                    and left.dim.is_constant and right.dim.is_constant:
                a, b = left.dim.coeff, right.dim.coeff
                try:
                    if isinstance(op, ast.Add):
                        return Sym(Dim(a + b))
                    if isinstance(op, ast.Sub):
                        return Sym(Dim(a - b)) if a >= b else Sym(ANY_DIM)
                    if isinstance(op, ast.FloorDiv):
                        return Sym(Dim(a // b))
                    if isinstance(op, ast.Mod):
                        return Sym(Dim(a % b))
                except ZeroDivisionError:
                    return Sym(ANY_DIM)
            if division:
                return Num("float64")
            return Sym(ANY_DIM)
        if isinstance(left, (Sym, Num)) and isinstance(right, (Sym, Num)):
            lt = left.dtype if isinstance(left, Num) else "int64"
            rt = right.dtype if isinstance(right, Num) else "int64"
            promoted = _promote(lt, rt, division=division)
            return Num(promoted) if promoted else OPAQUE
        return OPAQUE

    # -- calls -------------------------------------------------------------

    def _dtype_from(self, value: Any) -> str | None:
        if isinstance(value, Dt):
            return value.name
        return None

    def _dtype_from_node(self, node: ast.expr, env: dict[str, Any]) -> str | None:
        if isinstance(node, ast.Name) and node.id in _DTYPE_NAMES:
            return _canon_dtype(node.id)
        value = self._eval(node, env)
        return self._dtype_from(value)

    def _eval_call(self, node: ast.Call, env: dict[str, Any]) -> Any:
        func = node.func
        # Method-style calls on arrays: x.reshape / x.astype / ...
        if isinstance(func, ast.Attribute):
            base = self._eval(func.value, env)
            if isinstance(base, Arr):
                return self._array_method(node, base, func.attr, env)
            if base is NP_MOD or isinstance(base, NpFunc):
                name = func.attr if base is NP_MOD else \
                    f"{base.name}.{func.attr}"  # pragma: no cover - defensive
                return self._numpy_call(node, name, env)
            method_contract = self.by_method.get(func.attr)
            if method_contract is not None:
                return self._contract_call(node, method_contract, env)
            for kw in node.keywords:
                self._eval(kw.value, env)
            for arg in node.args:
                self._eval(arg, env)
            return OPAQUE
        if isinstance(func, ast.Name):
            name = func.id
            if name == "len":
                return self._builtin_len(node, env)
            if name in ("range", "enumerate", "zip", "sorted", "list",
                        "tuple", "dict", "set", "print", "isinstance",
                        "getattr", "hasattr", "any", "all", "sum", "repr",
                        "str", "type"):
                for arg in node.args:
                    self._eval(arg, env)
                return OPAQUE
            if name in ("int", "max", "min", "abs", "round", "divmod"):
                for arg in node.args:
                    self._eval(arg, env)
                return Sym(ANY_DIM)
            if name == "float":
                return Num("float64")
            if name == "complex":
                return Num("complex128")
            func_contract = self.by_func.get(name)
            if func_contract is not None:
                return self._contract_call(node, func_contract, env)
        value = self._eval(func, env)
        if isinstance(value, NpFunc):
            return self._numpy_call(node, value.name, env)
        for arg in node.args:
            self._eval(arg, env)
        for kw in node.keywords:
            self._eval(kw.value, env)
        return OPAQUE

    def _builtin_len(self, node: ast.Call, env: dict[str, Any]) -> Any:
        if not node.args:
            return Sym(ANY_DIM)
        value = self._eval(node.args[0], env)
        if isinstance(value, Arr) and value.shape:
            return Sym(value.shape[0])
        if isinstance(value, (Tup, Lst)):
            return Sym(Dim(len(value.items)))
        if isinstance(value, Shp):
            return Sym(Dim(len(value.dims)))
        if isinstance(value, Pth):
            return self._lookup_path_len(value.path)
        return Sym(ANY_DIM)

    def _lookup_path_len(self, path: str) -> Any:
        key = f"len({path})"
        if key in self.inv_bind:
            return Sym(Dim(1, (self.inv_bind[key],)))
        return Sym(ANY_DIM)

    # -- array methods -----------------------------------------------------

    def _shape_args_to_dims(
        self, args: list[ast.expr], env: dict[str, Any],
    ) -> tuple[DimLike, ...] | None:
        nodes = args
        if len(args) == 1:
            if isinstance(args[0], (ast.Tuple, ast.List)):
                nodes = list(args[0].elts)
            else:
                single = self._eval(args[0], env)
                if isinstance(single, Shp):
                    return single.dims
                if isinstance(single, Tup):
                    return tuple(
                        i.dim if isinstance(i, Sym) else ANY_DIM
                        for i in single.items)
                if isinstance(single, Sym):
                    return (single.dim,)
                return None
        dims: list[DimLike] = []
        for item in nodes:
            if isinstance(item, ast.UnaryOp) and \
                    isinstance(item.op, ast.USub) and \
                    isinstance(item.operand, ast.Constant) and \
                    item.operand.value == 1:
                dims.append(ANY_DIM)  # -1: numpy infers; we leave it free
                continue
            value = self._eval(item, env)
            if isinstance(value, Sym):
                dims.append(value.dim)
            else:
                dims.append(ANY_DIM)
        return tuple(dims)

    def _check_reshape(
        self, node: ast.AST, old: tuple[DimLike, ...],
        new: tuple[DimLike, ...],
    ) -> None:
        old_p = _fold_product(old)
        new_p = _fold_product(new)
        if isinstance(old_p, _AnyDim) or isinstance(new_p, _AnyDim):
            return
        if _dims_compatible(old_p, new_p):
            return
        self._emit(
            "shape-contract-violation", node,
            f"reshape does not conserve elements: {_render_shape(old)} has "
            f"{old_p!r} elements, target {_render_shape(new)} has "
            f"{new_p!r}",
        )

    def _array_method(
        self, node: ast.Call, base: Arr, name: str, env: dict[str, Any],
    ) -> Any:
        if name == "reshape":
            dims = self._shape_args_to_dims(list(node.args), env)
            if dims is None:
                return OPAQUE
            self._check_reshape(node, base.shape, dims)
            return Arr(dims, base.dtype)
        if name == "astype":
            dtype = self._dtype_from_node(node.args[0], env) \
                if node.args else None
            return Arr(base.shape, dtype)
        if name in ("copy", "conj", "conjugate", "round"):
            return base
        if name in ("ravel", "flatten"):
            return Arr((_fold_product(base.shape),), base.dtype)
        if name in ("sum", "mean", "max", "min", "prod"):
            return self._reduce(node, base, env)
        if name in ("argsort", "argpartition"):
            return Arr(base.shape, "int64")
        if name == "sort":
            return OPAQUE  # in-place, returns None
        if name == "item":
            return Sym(ANY_DIM)
        if name == "tolist":
            return OPAQUE
        if name == "view":
            return OPAQUE  # dtype reinterpretation changes shapes
        if name == "fill":
            return OPAQUE
        for arg in node.args:
            self._eval(arg, env)
        return OPAQUE

    def _reduce(self, node: ast.Call, base: Arr, env: dict[str, Any]) -> Any:
        axis: int | None = None
        keepdims = False
        out_val: Any = None
        for kw in node.keywords:
            if kw.arg == "axis":
                if isinstance(kw.value, ast.Constant) \
                        and isinstance(kw.value.value, int):
                    axis = kw.value.value
                else:
                    return OPAQUE
            elif kw.arg == "out":
                out_val = self._eval(kw.value, env)
            elif kw.arg == "keepdims":
                keepdims = True
        for arg in node.args[1:] if node.args else []:
            self._eval(arg, env)
        if keepdims:
            return OPAQUE
        if axis is None:
            reduced: Any = Num(base.dtype) if base.dtype else OPAQUE
        else:
            nd = len(base.shape)
            if not -nd <= axis < nd:
                return OPAQUE
            dims = tuple(d for i, d in enumerate(base.shape)
                         if i != axis % nd)
            reduced = Arr(dims, base.dtype)
        if out_val is not None and isinstance(out_val, Arr) \
                and isinstance(reduced, Arr):
            if len(out_val.shape) != len(reduced.shape) or not all(
                    _dims_compatible(a, b)
                    for a, b in zip(out_val.shape, reduced.shape)):
                self._emit(
                    "shape-contract-violation", node,
                    f"reduction result {_render_shape(reduced.shape)} "
                    f"cannot match out= buffer "
                    f"{_render_shape(out_val.shape)}",
                )
            return out_val
        return reduced

    # -- numpy module calls ------------------------------------------------

    def _numpy_call(self, node: ast.Call, name: str, env: dict[str, Any]) -> Any:
        args = [self._eval(a, env) for a in node.args]
        kw_nodes = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        dtype: str | None = None
        if "dtype" in kw_nodes:
            dtype = self._dtype_from_node(kw_nodes["dtype"], env)
        if name in ("asarray", "ascontiguousarray", "asfortranarray",
                    "array"):
            if not args:
                return OPAQUE
            src = args[0]
            if isinstance(src, Arr):
                return Arr(src.shape, dtype or src.dtype)
            if isinstance(src, (Tup, Lst)):
                return self._stack_items(node, src.items, dtype)
            if isinstance(node.args[0], (ast.ListComp, ast.GeneratorExp)) \
                    and dtype is not None:
                # np.array([scalar for ...], dtype=...): 1-D of unknown len
                return Arr((ANY_DIM,), dtype)
            if isinstance(src, Pth):
                return Arr((ANY_DIM,), dtype) if dtype else OPAQUE
            return OPAQUE
        if name in ("empty", "zeros", "ones", "full"):
            if not node.args:
                return OPAQUE
            dims = self._shape_args_to_dims([node.args[0]], env)
            if dims is None:
                return OPAQUE
            if name == "full" and dtype is None and len(args) > 1:
                fill = args[1]
                if isinstance(fill, Num):
                    dtype = fill.dtype
                elif isinstance(fill, Sym):
                    dtype = "int64"
            return Arr(dims, dtype or ("float64" if name != "full" else None))
        if name in ("empty_like", "zeros_like", "ones_like", "full_like"):
            if args and isinstance(args[0], Arr):
                return Arr(args[0].shape, dtype or args[0].dtype)
            return OPAQUE
        if name == "arange":
            if len(node.args) == 1:
                value = args[0]
                if isinstance(value, Sym):
                    return Arr((value.dim,), dtype or "int64")
            return Arr((ANY_DIM,), dtype or "int64")
        if name in ("abs", "absolute"):
            if args and isinstance(args[0], Arr):
                mapped = {"complex128": "float64",
                          "complex64": "float32"}.get(
                    args[0].dtype or "", args[0].dtype)
                return Arr(args[0].shape, mapped)
            return OPAQUE
        if name in ("exp", "cos", "sin", "sqrt", "log", "conj",
                    "conjugate", "angle"):
            if args and isinstance(args[0], Arr):
                src_dtype = args[0].dtype
                if name == "angle":
                    mapped = "float64"
                elif src_dtype in ("int64", "int32", "int16", "bool"):
                    mapped = "float64"
                else:
                    mapped = src_dtype
                return Arr(args[0].shape, mapped)
            if args and isinstance(args[0], Num):
                return args[0]
            return OPAQUE
        if name in ("minimum", "maximum", "add", "multiply", "where"):
            arrs = [a for a in args if isinstance(a, Arr)]
            if arrs and name != "where":
                shape = arrs[0].shape
                for other in arrs[1:]:
                    shape = self._broadcast(node, shape, other.shape)
                return Arr(shape, _promote(arrs[0].dtype,
                                           arrs[-1].dtype))
            return OPAQUE
        if name == "sum":
            if args and isinstance(args[0], Arr):
                return self._reduce(node, args[0], env)
            return OPAQUE
        if name == "reshape":
            if args and isinstance(args[0], Arr) and len(node.args) >= 2:
                dims = self._shape_args_to_dims(node.args[1:], env)
                if dims is None:
                    return OPAQUE
                self._check_reshape(node, args[0].shape, dims)
                return Arr(dims, args[0].dtype)
            return OPAQUE
        if name == "concatenate":
            if args and isinstance(args[0], (Tup, Lst)):
                items = [i for i in args[0].items if isinstance(i, Arr)]
                if items and len(items) == len(args[0].items):
                    nd = len(items[0].shape)
                    if all(len(i.shape) == nd for i in items) and nd >= 1:
                        cat_dims: tuple[DimLike, ...] = \
                            (ANY_DIM,) + items[0].shape[1:]
                        cat_dtype = items[0].dtype
                        for other in items[1:]:
                            cat_dtype = _promote(cat_dtype, other.dtype)
                        return Arr(cat_dims, cat_dtype)
            return OPAQUE
        if name == "stack":
            if args and isinstance(args[0], (Tup, Lst)):
                return self._stack_items(node, args[0].items, dtype)
            return OPAQUE
        if name == "outer":
            if len(args) >= 2 and isinstance(args[0], Arr) \
                    and isinstance(args[1], Arr):
                return Arr((_fold_product(args[0].shape),
                            _fold_product(args[1].shape)),
                           _promote(args[0].dtype, args[1].dtype))
            return OPAQUE
        if name == "flatnonzero":
            return Arr((ANY_DIM,), "int64")
        if name == "unique":
            if args and isinstance(args[0], Arr):
                return Arr((ANY_DIM,), args[0].dtype)
            return OPAQUE
        if name in ("argsort", "argpartition"):
            if args and isinstance(args[0], Arr):
                return Arr(args[0].shape, "int64")
            return OPAQUE
        if name == "sort":
            if args and isinstance(args[0], Arr):
                return args[0]
            return OPAQUE
        if name == "cumsum":
            if args and isinstance(args[0], Arr):
                if "axis" in kw_nodes or len(node.args) > 1:
                    return Arr(args[0].shape, args[0].dtype)
                return Arr((_fold_product(args[0].shape),), args[0].dtype)
            return OPAQUE
        if name == "repeat":
            return Arr((ANY_DIM,), args[0].dtype
                       if args and isinstance(args[0], Arr) else None)
        if name in ("median", "mean"):
            return OPAQUE
        if name == "atleast_2d":
            return OPAQUE
        if name == "split":
            return OPAQUE
        if name == "dtype":
            if node.args:
                inner = self._dtype_from_node(node.args[0], env)
                if inner:
                    return Dt(inner)
            return OPAQUE
        return OPAQUE

    def _stack_items(
        self, node: ast.AST, items: tuple[Any, ...], dtype: str | None,
    ) -> Any:
        if not items:
            return OPAQUE
        if all(isinstance(i, (Sym, Num)) for i in items):
            return Arr((Dim(len(items)),), dtype)
        arrs = [i for i in items if isinstance(i, Arr)]
        if len(arrs) != len(items):
            return OPAQUE
        nd = len(arrs[0].shape)
        if any(len(a.shape) != nd for a in arrs):
            return OPAQUE
        dims: list[DimLike] = [Dim(len(items))]
        for axis in range(nd):
            cand = arrs[0].shape[axis]
            for other in arrs[1:]:
                if not (isinstance(cand, Dim)
                        and isinstance(other.shape[axis], Dim)
                        and cand == other.shape[axis]):
                    cand = ANY_DIM
                    break
            dims.append(cand)
        out_dtype = dtype or arrs[0].dtype
        for other in arrs[1:]:
            out_dtype = out_dtype if dtype else _promote(out_dtype,
                                                         other.dtype)
        return Arr(tuple(dims), out_dtype)

    # -- contract-to-contract call sites ----------------------------------

    def _contract_call(
        self, node: ast.Call, callee: Contract, env: dict[str, Any],
    ) -> Any:
        if callee.fn is None:
            return OPAQUE
        try:
            params = list(inspect.signature(callee.fn).parameters)
        except (TypeError, ValueError):
            return OPAQUE
        if params and params[0] == "self":
            params = params[1:]
        argmap: dict[str, Any] = {}
        for i, arg_node in enumerate(node.args):
            if isinstance(arg_node, ast.Starred):
                self._eval(arg_node.value, env)
                continue
            value = self._eval(arg_node, env)
            if i < len(params):
                argmap[params[i]] = value
        for kw in node.keywords:
            value = self._eval(kw.value, env)
            if kw.arg is not None:
                argmap[kw.arg] = value
        # Substitution: caller-global symbols pass through by identity;
        # callee-only symbols unify from argument dims.
        subst: dict[str, DimLike] = {}
        for sym in callee.symbols():
            if sym in self.globals_syms:
                subst[sym] = Dim(1, (sym,))
        for pname, value in argmap.items():
            if isinstance(value, Sym) and pname in callee.symbols():
                subst.setdefault(pname, value.dim)
        for arg_spec in callee.inputs:
            value = argmap.get(arg_spec.name)
            if not isinstance(value, Arr) or arg_spec.spec.dims is None:
                continue
            declared = arg_spec.spec.dims
            if len(declared) != len(value.shape):
                self._emit(
                    "shape-contract-violation", node,
                    f"call to {callee.key}: argument "
                    f"{arg_spec.name!r} is {len(value.shape)}-D "
                    f"{_render_shape(value.shape)}, callee declares "
                    f"{arg_spec.spec.render_dims()}",
                )
                continue
            for axis, (want, got) in enumerate(zip(declared, value.shape)):
                if isinstance(want, _AnyDim) or isinstance(got, _AnyDim):
                    continue
                resolved = self._subst_dim(want, subst)
                if resolved is None:
                    # A single free bare symbol unifies from the argument
                    # (e.g. bucket_fft's M taking the caller's S*L).
                    if want.coeff == 1 and len(want.syms) == 1:
                        subst[want.syms[0]] = got
                    continue
                if not _dims_compatible(resolved, got):
                    self._emit(
                        "shape-contract-violation", node,
                        f"call to {callee.key}: argument "
                        f"{arg_spec.name!r} axis {axis} is {got!r}, "
                        f"callee declares {want!r} (= {resolved!r} here)",
                    )
            if arg_spec.spec.dtype is not None \
                    and not arg_spec.spec.dtype.startswith("@") \
                    and value.dtype is not None \
                    and _canon_dtype(arg_spec.spec.dtype) != value.dtype:
                self._emit(
                    "dtype-drift", node,
                    f"call to {callee.key}: argument {arg_spec.name!r} "
                    f"has dtype {value.dtype}, callee declares "
                    f"{_canon_dtype(arg_spec.spec.dtype)}",
                )
        out = callee.output
        if out.dims is None or out.shape_path is not None:
            return OPAQUE
        dims = tuple(self._subst_dim(d, subst) or ANY_DIM for d in out.dims)
        out_dtype = None
        if out.dtype is not None and not out.dtype.startswith("@"):
            out_dtype = _canon_dtype(out.dtype)
        return Arr(dims, out_dtype)

    @staticmethod
    def _subst_dim(
        dim: DimLike, subst: dict[str, DimLike],
    ) -> DimLike | None:
        """Map a callee dim through the substitution; None if underdefined."""
        if isinstance(dim, _AnyDim):
            return ANY_DIM
        out = Dim(dim.coeff)
        for sym in dim.syms:
            mapped = subst.get(sym)
            if mapped is None:
                return None
            if isinstance(mapped, _AnyDim):
                return ANY_DIM
            out = out.times(mapped)
        return out


# ---------------------------------------------------------------------------
# Battery driver


def _default_root() -> Path:
    # shapes.py lives at src/repro/analysis/staticcheck/; the repo root is
    # four levels up.
    return Path(__file__).resolve().parents[4]


def _source_for(contract: Contract) -> tuple[str, str, int] | None:
    """(source, absolute file, first line) for a contract's function."""
    fn = contract.fn
    if fn is None:
        return None
    try:
        file = inspect.getsourcefile(fn)
        lines, lineno = inspect.getsourcelines(fn)
    except (OSError, TypeError):
        return None
    if file is None:
        return None
    return textwrap.dedent("".join(lines)), file, lineno


def check_contract(
    contract: Contract,
    *,
    root: Path | None = None,
    by_func: dict[str, Contract] | None = None,
    by_method: dict[str, Contract] | None = None,
) -> list[Finding]:
    """Statically check one contract's body; returns raw findings
    (suppressions not yet applied)."""
    base = root or _default_root()
    if by_func is None or by_method is None:
        by_func, by_method = _contract_maps()
    located = _source_for(contract)
    if located is None:
        return []
    source, file, lineno = located
    tree = ast.parse(source)
    ast.increment_lineno(tree, lineno - 1)
    fn_node = tree.body[0]
    if not isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    relpath = os.path.relpath(file, base)
    checker = _BodyChecker(contract, relpath=relpath, by_func=by_func,
                           by_method=by_method)
    if isinstance(fn_node, ast.AsyncFunctionDef):
        return []
    return checker.check(fn_node)


def _contract_maps() -> tuple[dict[str, Contract], dict[str, Contract]]:
    by_func: dict[str, Contract] = {}
    by_method: dict[str, Contract] = {}
    for contract in registered_contracts():
        if contract.is_method:
            by_method[contract.name] = contract
        else:
            by_func[contract.name] = contract
    return by_func, by_method


def _apply_suppressions(
    findings: list[Finding], root: Path, cache: dict[str, Suppressions],
) -> list[Finding]:
    kept: list[Finding] = []
    for finding in findings:
        suppressions = cache.get(finding.path)
        if suppressions is None:
            try:
                text = (root / finding.path).read_text()
            except OSError:
                text = ""
            suppressions = Suppressions(text)
            cache[finding.path] = suppressions
        if not suppressions.covers(finding.rule, finding.line, finding.line):
            kept.append(finding)
    return kept


def check_contracts(root: str | Path | None = None) -> list[Finding]:
    """The shape battery: check every registered contract plus coverage.

    Imports the core modules (populating the registry), abstract-
    interprets each decorated body, enforces ``REQUIRED_CONTRACTS``, and
    guards the ``expect_violation`` negative controls.  Internal checker
    errors surface as ``shape-checker-selfcheck`` findings — broken
    tooling must not produce a green lint.
    """
    base = Path(root) if root is not None else _default_root()
    findings: list[Finding] = []
    for module in _CONTRACT_MODULES:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            findings.append(Finding(
                rule="shape-checker-selfcheck", severity="error",
                path=f"src/{module.replace('.', '/')}.py", line=1,
                message=f"cannot import contract module {module}: {exc}",
                engine="shape",
            ))
    by_func, by_method = _contract_maps()
    suppression_cache: dict[str, Suppressions] = {}
    registry_keys = set()
    for contract in registered_contracts():
        registry_keys.add(contract.key)
        located = _source_for(contract)
        relpath = os.path.relpath(located[1], base) if located else "unknown"
        line = located[2] if located else 1
        try:
            raw = check_contract(contract, root=base, by_func=by_func,
                                 by_method=by_method)
        except Exception as exc:  # noqa: BLE001 - must not break lint
            findings.append(Finding(
                rule="shape-checker-selfcheck", severity="error",
                path=relpath, line=line,
                message=(f"internal error checking {contract.key}: "
                         f"{type(exc).__name__}: {exc}"),
                engine="shape",
            ))
            continue
        raw = _apply_suppressions(raw, base, suppression_cache)
        if contract.expect_violation:
            if not any(f.rule == "shape-contract-violation" for f in raw):
                findings.append(Finding(
                    rule="shape-checker-selfcheck", severity="error",
                    path=relpath, line=line,
                    message=(
                        f"negative control {contract.key} no longer "
                        f"produces a shape-contract-violation — the "
                        f"checker has gone blind"
                    ),
                    engine="shape",
                ))
            continue
        findings.extend(raw)
    for key in REQUIRED_CONTRACTS:
        if key in registry_keys:
            continue
        module_path = "src/" + "/".join(key.split(".")[:3]) + ".py"
        findings.append(Finding(
            rule="contract-missing", severity="error",
            path=module_path, line=1,
            message=(f"public pipeline function {key} must declare a "
                     f"@shape_contract (REQUIRED_CONTRACTS)"),
            engine="shape",
        ))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
