"""MILP instances: value types, a line-oriented text format, seeded generators, and a brute-force oracle.

An instance is ``min c^T x  s.t.  A x <= b`` with each variable binary,
integer, or continuous inside box bounds. Every constraint is stored in
canonical ``<=`` form; ``>=`` and ``=`` rows are rewritten when parsed.

The text format has one statement per line (blank lines and ``#`` comments
are ignored)::

    NAME <name>
    VAR <name> <binary|integer|continuous> <lb> <ub> <obj>
    CON <name> <le|ge|eq> <rhs> <idx>:<coef> ...

The instance name after ``NAME`` (default ``unnamed``) must match
``[A-Za-z0-9_][A-Za-z0-9_.-]*``: it becomes a file name
(``plots/<name>.svg``) and a CSV field, so it holds no path separator,
comma or leading dot. Variable and constraint names match it too, so that
they are single tokens that do not start a comment, and no variable is
named ``SOL`` in any case, so that a solution's lines read back.

Solutions serialize as ``SOL <objective>`` followed by ``<varname> <value>``
lines. Floats are written with ``repr`` so round-trips are exact.

An instance owns its unfixed LP relaxation: ``MilpInstance.root_lp`` solves
it on first use and keeps it for the instance's lifetime. The encoder's
root-LP feature and the root node of every unfixed branch-and-bound run read
that one result.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Literal

import numpy as np

if TYPE_CHECKING:
    from .simplex import LpResult

VarKind = Literal["binary", "integer", "continuous"]

VAR_KINDS = ("binary", "integer", "continuous")

#: Feasibility slack for row checks on the exact integer data the generators emit.
FEAS_TOL = 1e-9
#: Row, bound and integrality slack of ``check_feasibility``, the check of any given point.
CHECK_ROW_TOL, CHECK_BOUND_TOL, CHECK_INT_TOL = 1e-7, 1e-9, 1e-6
#: Largest variable count the exhaustive oracle accepts (2^24 assignments).
ORACLE_MAX_VARS = 24
#: Legal instance, variable and constraint names; an instance name becomes a
#: file name and a CSV field, and every name is one token of the text formats.
_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")


class InstanceFormatError(ValueError):
    """Syntax error in a document; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InstanceValidationError(ValueError):
    """Semantic error; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class OracleTooLarge(ValueError):
    """Raised when an instance exceeds the brute-force enumeration limit."""


class Infeasible(Exception):
    """Raised when no assignment satisfies all constraints."""


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class VarDef:
    name: str
    kind: VarKind
    lb: float
    ub: float
    obj: float


@dataclass(frozen=True)
class ConstraintDef:
    """A canonical ``terms . x <= rhs`` row; terms are (var_index, coefficient)."""

    name: str
    terms: tuple[tuple[int, float], ...]
    rhs: float

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((int(j), float(a)) for j, a in self.terms)
        )
        object.__setattr__(self, "rhs", float(self.rhs))


@dataclass(frozen=True)
class MilpInstance:
    """An immutable MILP in canonical form. Validates its invariants on construction."""

    name: str
    vars: tuple[VarDef, ...]
    constraints: tuple[ConstraintDef, ...]

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        self._validate()

    def _validate(self) -> None:
        if not _NAME.fullmatch(self.name):
            raise InstanceValidationError(
                "name", f"instance name {self.name!r} does not match {_NAME.pattern}"
            )
        if len(self.vars) < 1:
            raise InstanceValidationError("vars", "an instance needs at least one variable")
        seen: set[str] = set()
        for i, v in enumerate(self.vars):
            path = f"vars[{i}]"
            if not _NAME.fullmatch(v.name):
                raise InstanceValidationError(
                    f"{path}.name", f"variable name {v.name!r} does not match {_NAME.pattern}"
                )
            if v.name.upper() == "SOL":
                raise InstanceValidationError(
                    f"{path}.name", f"variable name {v.name!r} is the solution format's SOL keyword"
                )
            if v.kind not in VAR_KINDS:
                raise InstanceValidationError(f"{path}.kind", f"unknown kind {v.kind!r}")
            if v.name in seen:
                raise InstanceValidationError(f"{path}.name", f"duplicate variable name {v.name!r}")
            seen.add(v.name)
            if not (v.lb <= v.ub):
                raise InstanceValidationError(
                    f"{path}", f"variable {v.name!r} has lb {v.lb} > ub {v.ub}"
                )
            if v.lb == math.inf or v.ub == -math.inf:
                raise InstanceValidationError(path, f"variable {v.name!r} has no finite value")
            if v.kind == "binary" and (v.lb, v.ub) != (0.0, 1.0):
                raise InstanceValidationError(
                    f"{path}", f"binary variable {v.name!r} must have bounds (0, 1)"
                )
            if not math.isfinite(v.obj):
                raise InstanceValidationError(f"{path}.obj", "objective coefficient must be finite")
        n = len(self.vars)
        for k, con in enumerate(self.constraints):
            path = f"constraints[{k}]"
            if not _NAME.fullmatch(con.name):
                raise InstanceValidationError(
                    f"{path}.name", f"constraint name {con.name!r} does not match {_NAME.pattern}"
                )
            if not math.isfinite(con.rhs):
                raise InstanceValidationError(f"{path}.rhs", "rhs must be finite")
            used: set[int] = set()
            for t, (j, a) in enumerate(con.terms):
                if not 0 <= j < n:
                    raise InstanceValidationError(
                        f"{path}.terms[{t}]",
                        f"constraint {con.name!r} references variable index {j} of {n}",
                    )
                if j in used:
                    raise InstanceValidationError(
                        f"{path}.terms[{t}]",
                        f"constraint {con.name!r} repeats variable index {j}",
                    )
                used.add(j)
                if not math.isfinite(a):
                    raise InstanceValidationError(f"{path}.terms[{t}]", "coefficient must be finite")

    @property
    def n(self) -> int:
        return len(self.vars)

    @property
    def m(self) -> int:
        return len(self.constraints)

    def objective_vector(self) -> np.ndarray:
        return np.array([v.obj for v in self.vars], dtype=np.float64)

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lb = np.array([v.lb for v in self.vars], dtype=np.float64)
        ub = np.array([v.ub for v in self.vars], dtype=np.float64)
        return lb, ub

    def integer_mask(self) -> np.ndarray:
        return np.array([v.kind in ("binary", "integer") for v in self.vars], dtype=bool)

    def binary_mask(self) -> np.ndarray:
        return np.array([v.kind == "binary" for v in self.vars], dtype=bool)

    def row_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, col, coef) of every stored term, row by row and in term order."""
        counts = [len(con.terms) for con in self.constraints]
        rows = np.repeat(np.arange(self.m, dtype=np.int64), counts)
        cols = np.array([j for con in self.constraints for j, _ in con.terms], dtype=np.int64)
        coefs = np.array([a for con in self.constraints for _, a in con.terms], dtype=np.float64)
        return rows, cols, coefs

    def dense_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (A, b) of the canonical ``A x <= b`` system."""
        A = np.zeros((self.m, self.n), dtype=np.float64)
        rows, cols, coefs = self.row_terms()
        A[rows, cols] = coefs
        return A, np.array([con.rhs for con in self.constraints], dtype=np.float64)

    @cached_property
    def root_lp(self) -> LpResult:
        """The unfixed LP relaxation, ``simplex.solve_lp(self)``, solved on first use."""
        from .simplex import solve_lp  # simplex builds on instances

        return solve_lp(self)


@dataclass(frozen=True, eq=False)
class Assignment:
    """A full value vector with its objective."""

    values: np.ndarray
    objective: float

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.float64).copy()
        )
        object.__setattr__(self, "objective", float(self.objective))


def check_feasibility(instance: MilpInstance, values: np.ndarray) -> bool:
    """True iff ``values`` is finite and satisfies rows, bounds, and integrality within tolerances."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (instance.n,) or not np.isfinite(values).all():
        return False
    lb, ub = instance.bounds_arrays()
    if np.any(values < lb - CHECK_BOUND_TOL) or np.any(values > ub + CHECK_BOUND_TOL):
        return False
    imask = instance.integer_mask()
    if np.any(np.abs(values[imask] - np.round(values[imask])) > CHECK_INT_TOL):
        return False
    A, b = instance.dense_matrix()
    if np.any(A @ values > b + CHECK_ROW_TOL):
        return False
    return True


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


_TOKEN = re.compile(r"\S+")


def _column(raw: str, k: int) -> int:
    """1-based column of token ``k`` of ``raw.split()``; only error messages need it."""
    return [mt.start() + 1 for mt in _TOKEN.finditer(raw)][k]


def _parse_float(token: str, line_no: int, raw: str, k: int) -> float:
    """``token``, which is token ``k`` of ``raw.split()`` or a part of it, as a float."""
    try:
        x = float(token)
    except ValueError:
        raise InstanceFormatError(
            f"expected a number, got {token!r}", line_no, _column(raw, k)
        ) from None
    if math.isnan(x):
        raise InstanceFormatError("NaN is not a valid value", line_no, _column(raw, k))
    return x


def parse_instance(text: str) -> MilpInstance:
    """Parse a canonical-format document into a validated :class:`MilpInstance`."""
    name = "unnamed"
    var_defs: list[VarDef] = []
    constraints: list[ConstraintDef] = []
    saw_name = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        keyword = tokens[0].upper()
        if keyword == "NAME":
            if saw_name:
                raise InstanceFormatError("duplicate NAME line", line_no, 1)
            if len(tokens) != 2:
                raise InstanceFormatError("NAME takes exactly one token", line_no, 1)
            name = tokens[1]
            saw_name = True
        elif keyword == "VAR":
            if len(tokens) != 6:
                raise InstanceFormatError(
                    "VAR needs <name> <kind> <lb> <ub> <obj>", line_no, 1
                )
            kind = tokens[2]
            if kind not in VAR_KINDS:
                raise InstanceFormatError(f"unknown kind {kind!r}", line_no, _column(raw, 2))
            lb = _parse_float(tokens[3], line_no, raw, 3)
            ub = _parse_float(tokens[4], line_no, raw, 4)
            obj = _parse_float(tokens[5], line_no, raw, 5)
            var_defs.append(VarDef(tokens[1], kind, lb, ub, obj))  # type: ignore[arg-type]
        elif keyword == "CON":
            if len(tokens) < 4:
                raise InstanceFormatError(
                    "CON needs <name> <sense> <rhs> and coefficient terms", line_no, 1
                )
            sense = tokens[2].lower()
            if sense not in ("le", "ge", "eq"):
                raise InstanceFormatError(f"unknown sense {sense!r}", line_no, _column(raw, 2))
            rhs = _parse_float(tokens[3], line_no, raw, 3)
            terms: list[tuple[int, float]] = []
            for k in range(4, len(tokens)):
                idx_str, sep, coef_str = tokens[k].partition(":")
                if not sep:
                    raise InstanceFormatError(
                        f"expected <idx>:<coef>, got {tokens[k]!r}", line_no, _column(raw, k)
                    )
                try:
                    idx = int(idx_str)
                except ValueError:
                    raise InstanceFormatError(
                        f"bad variable index {idx_str!r}", line_no, _column(raw, k)
                    ) from None
                terms.append((idx, _parse_float(coef_str, line_no, raw, k)))
            if sense == "ge":
                terms, rhs = [(j, -a) for j, a in terms], -rhs
            constraints.append(ConstraintDef(tokens[1], tuple(terms), rhs))
            if sense == "eq":  # one row per direction
                flipped = tuple((j, -a) for j, a in terms)
                constraints.append(ConstraintDef(tokens[1] + "__flip", flipped, -rhs))
        else:
            raise InstanceFormatError(f"unknown keyword {tokens[0]!r}", line_no, 1)
    return MilpInstance(name, tuple(var_defs), tuple(constraints))


def serialize_instance(instance: MilpInstance) -> str:
    lines = [f"NAME {instance.name}"]
    for v in instance.vars:
        lines.append(f"VAR {v.name} {v.kind} {_fmt(v.lb)} {_fmt(v.ub)} {_fmt(v.obj)}")
    for con in instance.constraints:
        terms = " ".join(f"{j}:{_fmt(a)}" for j, a in con.terms)
        row = f"CON {con.name} le {_fmt(con.rhs)}"
        lines.append(f"{row} {terms}" if terms else row)
    return "\n".join(lines) + "\n"


def serialize_solution(instance: MilpInstance, assignment: Assignment) -> str:
    lines = [f"SOL {_fmt(assignment.objective)}"]
    for v, val in zip(instance.vars, assignment.values):
        lines.append(f"{v.name} {_fmt(float(val))}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str, instance: MilpInstance) -> Assignment:
    objective: float | None = None
    by_name: dict[str, float] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0].upper() == "SOL":
            if objective is not None:
                raise InstanceFormatError("duplicate SOL line", line_no, 1)
            if len(tokens) != 2:
                raise InstanceFormatError("SOL takes exactly one objective", line_no, 1)
            objective = _parse_float(tokens[1], line_no, raw, 1)
        else:
            if len(tokens) != 2:
                raise InstanceFormatError("expected '<varname> <value>'", line_no, 1)
            if tokens[0] in by_name:
                raise InstanceFormatError(f"duplicate value for {tokens[0]!r}", line_no, 1)
            by_name[tokens[0]] = _parse_float(tokens[1], line_no, raw, 1)
    if objective is None:
        raise InstanceFormatError("missing SOL line", 1, 1)
    values = np.empty(instance.n, dtype=np.float64)
    for i, v in enumerate(instance.vars):
        if v.name not in by_name:
            raise InstanceValidationError(f"vars[{i}]", f"solution misses variable {v.name!r}")
        values[i] = by_name.pop(v.name)
        if not math.isfinite(values[i]):
            raise InstanceValidationError(f"vars[{i}]", f"value {values[i]} of {v.name!r} is not finite")
    if by_name:
        extra = sorted(by_name)[0]
        raise InstanceValidationError("vars", f"solution names unknown variable {extra!r}")
    if not math.isfinite(objective):
        raise InstanceValidationError("objective", f"stated objective {objective} is not finite")
    expected = float(instance.objective_vector() @ values)
    if abs(expected - objective) > 1e-9:
        raise InstanceValidationError(
            "objective", f"stated objective {objective} != c.x {expected}"
        )
    return Assignment(values, objective)


# ---------------------------------------------------------------------------
# Generators (pure functions of seed and sizes; integer data in [1, 100])
# ---------------------------------------------------------------------------


def check_knapsack_sizes(n_items: int, n_dims: int) -> None:
    if n_items < 1 or n_dims < 1:
        raise ValueError(f"n_items and n_dims must be >= 1, got {n_items} and {n_dims}")


def check_covering_sizes(n_vars: int, n_rows: int) -> None:
    if not n_vars >= n_rows >= 1:
        raise ValueError(f"need n_vars >= n_rows >= 1, got n_vars={n_vars} and n_rows={n_rows}")


def generate_knapsack(seed: int, n_items: int, n_dims: int) -> MilpInstance:
    """Multi-dimensional knapsack: maximize item values under n_dims capacities.

    Emitted in minimization form (negated values). Capacities are half the
    total weight per dimension, so packing everything is infeasible for two
    or more items, while any single item always fits.
    """
    check_knapsack_sizes(n_items, n_dims)
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 101, size=n_items)
    weights = rng.integers(1, 101, size=(n_dims, n_items))
    var_defs = tuple(
        VarDef(f"x{j}", "binary", 0.0, 1.0, float(-values[j])) for j in range(n_items)
    )
    cons = []
    for i in range(n_dims):
        cap = max(int(weights[i].sum()) // 2, int(weights[i].max()))
        terms = tuple((j, float(weights[i, j])) for j in range(n_items))
        cons.append(ConstraintDef(f"cap{i}", terms, float(cap)))
    return MilpInstance(f"knapsack_s{seed}_n{n_items}_d{n_dims}", var_defs, tuple(cons))


def generate_covering(seed: int, n_vars: int, n_rows: int) -> MilpInstance:
    """Covering family: minimize total cost subject to >=-cover rows.

    Each row demands roughly half of a random subset, so the all-ones vector
    is always feasible while the LP relaxation stays highly fractional. Costs
    track how many rows a variable appears in (with noise), which keeps
    cost/coverage trade-offs tight and rounding heuristics honest. Rows are
    stored canonically as ``<=`` constraints with negated coefficients.
    """
    check_covering_sizes(n_vars, n_rows)
    rng = np.random.default_rng(seed)
    k_lo = min(max(2, n_vars // 8), n_vars)
    k_hi = min(max(k_lo + 1, n_vars // 2), n_vars)
    rows = []
    for _ in range(n_rows):
        k = int(rng.integers(k_lo, k_hi + 1))
        subset = np.sort(rng.choice(n_vars, size=k, replace=False))
        r = max(1, (k + int(rng.integers(0, 2))) // 2)
        rows.append((subset, r))
    degree = np.zeros(n_vars)
    for subset, _ in rows:
        degree[subset] += 1
    noise = rng.integers(70, 131, size=n_vars) / 100.0
    costs = np.clip(np.round(degree * 5.0 * noise), 1, 100).astype(int)
    var_defs = tuple(
        VarDef(f"x{j}", "binary", 0.0, 1.0, float(costs[j])) for j in range(n_vars)
    )
    cons = tuple(
        ConstraintDef(f"cover{i}", tuple((int(j), -1.0) for j in subset), float(-r))
        for i, (subset, r) in enumerate(rows)
    )
    return MilpInstance(f"covering_s{seed}_v{n_vars}_r{n_rows}", var_defs, cons)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def brute_force_solve(instance: MilpInstance) -> Assignment:
    """Global minimum over all binary assignments, lexicographically smallest on ties.

    Raises :class:`OracleTooLarge` beyond 2^24 assignments and
    :class:`Infeasible` when no assignment satisfies every row.
    """
    if any(v.kind != "binary" for v in instance.vars):
        raise ValueError("brute_force_solve requires an all-binary instance")
    n = instance.n
    if n > ORACLE_MAX_VARS:
        raise OracleTooLarge(f"{n} variables exceeds the {ORACLE_MAX_VARS}-variable oracle limit")
    A, b = instance.dense_matrix()
    c = instance.objective_vector()
    shifts = (n - 1 - np.arange(n)).astype(np.int64)
    best_obj: float | None = None
    best_k: int | None = None
    total = 1 << n
    chunk = 1 << 14
    for start in range(0, total, chunk):
        ks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        X = ((ks[:, None] >> shifts[None, :]) & 1).astype(np.float64)
        feasible = np.all(X @ A.T <= b + FEAS_TOL, axis=1)
        if not feasible.any():
            continue
        ks, X = ks[feasible], X[feasible]
        objs = X @ c
        i = int(np.argmin(objs))  # first minimum = lexicographically smallest
        if best_obj is None or objs[i] < best_obj:
            best_obj = float(objs[i])
            best_k = int(ks[i])
    if best_k is None:
        raise Infeasible(f"instance {instance.name!r} has no feasible binary assignment")
    values = ((best_k >> shifts) & 1).astype(np.float64)
    return Assignment(values, float(c @ values))
