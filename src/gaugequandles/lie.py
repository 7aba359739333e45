"""Numerical Lie-quandle checks over matrix groups.

The parametrized operation on sampled bundle points is
    p1 <|_t p2 = p1 * exp(-t X(p1)) * exp(t X(p2)),
where X assigns a Lie-algebra matrix to every point through an adjoint
section: X(m, g) = g^-1 * Xs(m) * g. The check_* functions sample the
Lie-quandle axioms (self-action, self-distributivity, idempotency), the
conjugation identity behind them, and the Noether fixing equivalence, and
report max Frobenius-norm residuals against a tolerance.

Everything broadcasts over leading axes: a point (m, g) is one base index
with one (d, d) matrix, or an int array of shape (...) with a (..., d, d)
stack. Each check draws all of its samples as one stack.

All randomness is seeded; every report carries its seed.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .errors import CapExceeded, NonFinite, ShapeError, int_field, json_int, json_real

# Truncation order for the scaled Taylor series; at argument norm <= 0.5 the
# remainder is far below double precision.
_EXP_TAYLOR_ORDER = 16

DEFAULT_COMPOSITE_TOLERANCE = 1e-8
PRIMITIVE_TOLERANCE = 1e-12

# Bound on the algebra and group residuals of a model's basis and a section's values.
MODEL_TOLERANCE = 1e-9

# Largest samples and base_points a sweep accepts, checked before any draw.
SAMPLES_CAP = 10_000
BASE_POINTS_CAP = 10_000

# Largest n accepted in a "GL<n>" model name. The basis alone holds n^2 dense
# n x n matrices (n^4 floats), and each is exponentiated before any check runs.
GL_DIM_CAP = 16


def _fro(a) -> np.ndarray:
    """Frobenius norm over the last two axes."""
    return np.linalg.norm(a, axis=(-2, -1))


def _col(t) -> np.ndarray:
    """Scalars of shape (...) as (..., 1, 1), to scale a stack of matrices."""
    return np.asarray(t, dtype=float)[..., None, None]


def _adjoint(M) -> np.ndarray:
    """Conjugate transpose of each matrix."""
    return np.swapaxes(M, -1, -2).conj()


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring a truncated Taylor series.

    Takes one (d, d) matrix or a (..., d, d) stack. Each matrix is halved
    until its Frobenius norm is <= 0.5, the series is summed by Horner's
    rule, and the result squared back as often as that matrix was halved.
    Dimension-agnostic and valid for non-normal input.
    """
    A = np.asarray(a)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ShapeError(f"matrix exponential needs square matrices, got shape {A.shape}")
    if not np.issubdtype(A.dtype, np.inexact):
        A = A.astype(np.float64)
    if not np.all(np.isfinite(A)):
        raise NonFinite("matrix exponential of a non-finite matrix")

    squarings = np.ceil(np.log2(np.maximum(_fro(A), 0.5) / 0.5)).astype(int)
    B = A / _col(2.0**squarings)

    eye = np.eye(A.shape[-1], dtype=B.dtype)
    result = eye
    for k in range(_EXP_TAYLOR_ORDER, 0, -1):
        result = eye + (B @ result) / k
    for i in range(squarings.max(initial=0)):
        result = np.where((squarings > i)[..., None, None], result @ result, result)
    return result


# ---------------------------------------------------------------------------
# Matrix group models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MatrixGroupModel:
    """A matrix group with a basis of its Lie algebra.

    A `unitary` model is a special unitary group: M^H M = I and det M = 1,
    the inverse is the conjugate transpose, and the algebra holds the
    traceless X with X^H = -X. A `real` model also needs real entries, as
    SO(3) inside SU(3) does. A model that is neither is GL(n): det M != 0,
    the inverse is solved for, and the algebra has no constraint.
    """

    name: str
    dim: int
    algebra_basis: tuple[np.ndarray, ...]
    unitary: bool = False
    real: bool = False

    def __post_init__(self):
        basis = np.asarray(self.algebra_basis)
        d = self.dim
        if basis.shape[:1] == (0,) or basis.shape[1:] != (d, d):
            raise ShapeError(f"{self.name} basis must be a (k, {d}, {d}) stack with k >= 1, got shape {basis.shape}")
        r = np.max(algebra_residual(self, basis))
        if r > MODEL_TOLERANCE:
            raise ShapeError(f"{self.name} basis matrix violates algebra constraints ({r:.2e})")
        r = np.max(membership_residual(self, mat_exp(basis)))
        if r > MODEL_TOLERANCE:
            raise ShapeError(f"exp of a {self.name} basis matrix leaves the group ({r:.2e})")

    def inverse(self, M) -> np.ndarray:
        return _adjoint(M) if self.unitary else np.linalg.inv(M)


def _imag_residual(A) -> np.ndarray:
    return np.abs(np.imag(A)).max(axis=(-2, -1))


def algebra_residual(model: MatrixGroupModel, A):
    """Distance of each (dim, dim) matrix in A from the model's algebra constraints (0 when satisfied)."""
    A = np.asarray(A)
    r = np.zeros(A.shape[:-2])
    if model.unitary:
        r = np.maximum(_fro(A + _adjoint(A)), np.abs(np.trace(A, axis1=-2, axis2=-1)))
    if model.real:
        r = np.maximum(r, _imag_residual(A))
    return r[()]


def membership_residual(model: MatrixGroupModel, M):
    """Frobenius distance of each matrix from the group's defining relations."""
    M = np.asarray(M)
    if M.shape[-2:] != (model.dim, model.dim):
        return np.inf
    finite = np.isfinite(M).all(axis=(-2, -1))
    M = np.where(finite[..., None, None], M, 0)
    det = np.linalg.det(M)
    if model.unitary:
        r = np.maximum(_fro(_adjoint(M) @ M - np.eye(model.dim)), np.abs(det - 1.0))
    else:
        r = np.where(np.abs(det) > 1e-12, 0.0, np.inf)
    if model.real:
        r = np.maximum(r, _imag_residual(M))
    return np.where(finite, r, np.inf)[()]


_SO3_BASIS = (
    np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
    np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
)

_SU2_BASIS = (
    0.5j * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    0.5j * np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    0.5j * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

_GL_NAME = re.compile(r"GL([1-9][0-9]*)")


def get_model(name: str) -> MatrixGroupModel:
    """Look up a model: "SO3", "SU2", or dense general linear "GL<n>", 1 <= n <= GL_DIM_CAP."""
    if name == "SO3":
        return MatrixGroupModel("SO3", 3, _SO3_BASIS, unitary=True, real=True)
    if name == "SU2":
        return MatrixGroupModel("SU2", 2, _SU2_BASIS, unitary=True)
    gl = _GL_NAME.fullmatch(name)
    if gl is None:
        raise ShapeError(
            f"unknown matrix group model {name!r}; expected SO3, SU2 or GL<n> with n a positive integer"
        )
    digits = gl[1]
    if len(digits) > len(str(GL_DIM_CAP)) or int(digits) > GL_DIM_CAP:
        raise CapExceeded(f"model {name!r} exceeds the GL<n> size cap n <= {GL_DIM_CAP}")
    n = int(digits)
    return MatrixGroupModel(f"GL{n}", n, tuple(np.eye(n * n).reshape(n * n, n, n)))


def random_algebra(model: MatrixGroupModel, rng: np.random.Generator, size=None) -> np.ndarray:
    """One random algebra matrix, or a stack of shape (*size, d, d).

    The k basis coefficients are uniform in [-sqrt(3/k), sqrt(3/k)], so the
    coefficient vector has expected squared length 1 for every model; for
    the 3-dimensional SO3 and SU2 algebras the range is [-1, 1].
    """
    shape = () if size is None else np.atleast_1d(size)
    k = len(model.algebra_basis)
    bound = math.sqrt(3 / k)
    coeffs = rng.uniform(-bound, bound, size=(*shape, k))
    return np.einsum("...k,kij->...ij", coeffs, np.asarray(model.algebra_basis))


def random_group_element(model: MatrixGroupModel, rng: np.random.Generator, size=None) -> np.ndarray:
    return mat_exp(random_algebra(model, rng, size))


# ---------------------------------------------------------------------------
# Adjoint sections and the parametrized operation
# ---------------------------------------------------------------------------

Point = tuple  # (base index or int array of shape (...), group matrix or (..., d, d) stack)


@dataclass(frozen=True, eq=False)
class AdjointSection:
    """One algebra matrix per base point of M x G; X(m, g) = g^-1 * Xs(m) * g.

    The base is 0..base_points-1, one point per section value. The values
    may be given as any sequence of (d, d) matrices, but not as one bare
    matrix; they are stored as one read-only (base_points, d, d) array.
    """

    model: MatrixGroupModel
    section_algebra_values: np.ndarray

    def __post_init__(self):
        values = np.array(self.section_algebra_values)
        d = self.model.dim
        if values.shape[:1] == (0,):
            raise ShapeError("need at least one base point")
        if values.shape[1:] != (d, d):
            raise ShapeError(f"section values must be a (base_points, {d}, {d}) stack, got shape {values.shape}")
        r = np.max(algebra_residual(self.model, values))
        if r > MODEL_TOLERANCE:
            raise ShapeError(f"section value violates algebra constraints ({r:.2e})")
        values.setflags(write=False)
        object.__setattr__(self, "section_algebra_values", values)

    @property
    def base_points(self) -> int:
        return len(self.section_algebra_values)

    def eval(self, p: Point) -> np.ndarray:
        m, g = p
        return self.model.inverse(g) @ self.section_algebra_values[m] @ g


def random_point(X: AdjointSection, rng: np.random.Generator, size=None) -> Point:
    """One random point of X's bundle, or a stack of them with leading shape `size`."""
    return (rng.integers(X.base_points, size=size), random_group_element(X.model, rng, size=size))


def op_t(X: AdjointSection, p1: Point, p2: Point, t) -> Point:
    """p1 <|_t p2 = (m1, g1 * exp(-t X(p1)) * exp(t X(p2))).

    t is a scalar or an array that broadcasts with the points' leading shape.
    """
    t = _col(t)
    if not np.all(np.isfinite(t)):
        raise NonFinite("parameter t must be finite")
    m1, g1 = p1
    return (m1, g1 @ mat_exp(-t * X.eval(p1)) @ mat_exp(t * X.eval(p2)))


def _gap(p: Point, q: Point) -> np.ndarray:
    """Distance of the fiber coordinates; inf where the base points differ."""
    return np.where(np.equal(p[0], q[0]), _fro(p[1] - q[1]), np.inf)


# ---------------------------------------------------------------------------
# Sweep configuration
#   {"model": "SO3"|"SU2"|"GL<n>", "base_points": int, "samples": int,
#    "seed": int, "t_range": [lo, hi], "tolerance": real}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    model: str = "SO3"
    base_points: int = 3
    samples: int = 100
    seed: int = 0
    t_range: tuple[float, float] = (-2.0, 2.0)
    tolerance: float = DEFAULT_COMPOSITE_TOLERANCE

    def __post_init__(self):
        # Runs on construction and on every dataclasses.replace override.
        if not isinstance(self.model, str):
            raise ShapeError(f"model must be a string, got {self.model!r}")
        for name in ("base_points", "samples", "seed"):
            object.__setattr__(self, name, int_field(getattr(self, name), name))
        if self.samples < 1 or self.base_points < 1:
            raise ShapeError("a sweep needs samples >= 1 and base_points >= 1")
        if self.samples > SAMPLES_CAP or self.base_points > BASE_POINTS_CAP:
            raise CapExceeded(f"a sweep takes at most {SAMPLES_CAP} samples and {BASE_POINTS_CAP} base points")
        lo, hi = self.t_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ShapeError(f"t_range must be finite with lo <= hi, got {list(self.t_range)}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ShapeError(f"tolerance must be finite and > 0, got {self.tolerance}")

    def to_json(self) -> dict:
        return {**asdict(self), "t_range": list(self.t_range)}

    @staticmethod
    def from_json(obj) -> "SweepConfig":
        if not isinstance(obj, dict) or "model" not in obj:
            raise ShapeError("sweep config must carry at least a 'model'")
        keys = [f.name for f in fields(SweepConfig)]
        unknown = sorted(set(obj) - set(keys))
        if unknown:
            raise ShapeError(f"unknown sweep config key {unknown[0]!r}; expected only {', '.join(keys)}")
        # Only the keys present, read in field order; the dataclass supplies every
        # default, and __post_init__ checks the model.
        read = {"model": lambda value, _: value, "t_range": _json_range, "tolerance": json_real}
        return SweepConfig(**{key: read.get(key, json_int)(obj[key], key) for key in keys if key in obj})


def _json_range(value, what: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ShapeError(f"{what} must be a list [lo, hi], got {value!r}")
    return tuple(json_real(v, what) for v in value)


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    check: str
    samples: int
    seed: int
    max_residual: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


def _report(check: str, config: SweepConfig, residuals, tolerance: float | None = None) -> ResidualReport:
    tol = config.tolerance if tolerance is None else tolerance
    worst = float(np.max(residuals))
    return ResidualReport(
        check=check,
        samples=config.samples,
        seed=config.seed,
        max_residual=worst,
        tolerance=tol,
        passed=worst <= tol,
    )


def _draw(X: AdjointSection, config: SweepConfig, points: int, params: int) -> list:
    """`points` stacks of sample points, then `params` stacks of t values, from the config's seed."""
    rng = np.random.default_rng(config.seed)
    stacks = [random_point(X, rng, config.samples) for _ in range(points)]
    return [*stacks, *rng.uniform(*config.t_range, size=(params, config.samples))]


def check_idempotency(X: AdjointSection, config: SweepConfig) -> ResidualReport:
    """x <|_s x == x."""
    x, s = _draw(X, config, 1, 1)
    return _report("idempotency", config, _gap(op_t(X, x, x, s), x))


def check_self_action(X: AdjointSection, config: SweepConfig) -> ResidualReport:
    """(x <|_t y) <|_s y == x <|_{s+t} y."""
    x, y, t, s = _draw(X, config, 2, 2)
    lhs = op_t(X, op_t(X, x, y, t), y, s)
    rhs = op_t(X, x, y, s + t)
    return _report("self_action", config, _gap(lhs, rhs))


def check_self_distributivity(X: AdjointSection, config: SweepConfig) -> ResidualReport:
    """(x <|_t y) <|_s z == (x <|_s z) <|_t (y <|_s z)."""
    x, y, z, t, s = _draw(X, config, 3, 2)
    lhs = op_t(X, op_t(X, x, y, t), z, s)
    rhs = op_t(X, op_t(X, x, z, s), op_t(X, y, z, s), t)
    return _report("self_distributivity", config, _gap(lhs, rhs))


def check_key_identity(X: AdjointSection, config: SweepConfig) -> ResidualReport:
    """exp(t X(p1 * exp(s X(p2)))) == exp(-s X(p2)) exp(t X(p1)) exp(s X(p2)).

    The conjugation identity that makes the other axioms work.
    """
    p1, p2, t, s = _draw(X, config, 2, 2)
    t, s = _col(t), _col(s)
    h = mat_exp(s * X.eval(p2))
    lhs = mat_exp(t * X.eval((p1[0], p1[1] @ h)))
    rhs = mat_exp(-s * X.eval(p2)) @ mat_exp(t * X.eval(p1)) @ h
    return _report("key_identity", config, _fro(lhs - rhs))


def check_membership(X: AdjointSection, config: SweepConfig) -> ResidualReport:
    """Operation results stay in the group (chart residual)."""
    x, y, t = _draw(X, config, 2, 1)
    return _report("membership", config, membership_residual(X.model, op_t(X, x, y, t)[1]))


def check_section_equivariance(X: AdjointSection, config: SweepConfig) -> ResidualReport:
    """X(p * g) == g^-1 X(p) g, g the fiber coordinate of a second point; held to PRIMITIVE_TOLERANCE."""
    (m, h), (_, g) = _draw(X, config, 2, 0)
    moved = X.eval((m, h @ g))
    conjugated = X.model.inverse(g) @ X.eval((m, h)) @ g
    return _report("section_equivariance", config, _fro(moved - conjugated), PRIMITIVE_TOLERANCE)


# ---------------------------------------------------------------------------
# Noether property
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoetherReport:
    """Both directional fixing predicates for one pair, plus the algebra gap.

    For stacked pairs every field has the pairs' leading shape. The sampled
    "for all t" predicates are backed by the algebra-level criterion
    ||X(p1) - X(p2)|| <= tolerance, which implies fixing for every t, not
    only the sampled ones.
    """

    fixes_forward: bool
    fixes_backward: bool
    forward_residual: float
    backward_residual: float
    algebra_gap: float
    tolerance: float

    @property
    def agree(self) -> bool:
        return self.fixes_forward == self.fixes_backward


def _fixing_residual(X: AdjointSection, p: Point, q: Point, ts: np.ndarray) -> np.ndarray:
    """Max over the last axis of ts of the distance from p <|_t q to p."""
    p = (np.expand_dims(p[0], -1), np.expand_dims(p[1], -3))
    q = (np.expand_dims(q[0], -1), np.expand_dims(q[1], -3))
    return _gap(op_t(X, p, q, ts), p).max(axis=-1)


def check_noether(
    X: AdjointSection,
    p1: Point,
    p2: Point,
    t_samples: Sequence[float],
    tolerance: float = DEFAULT_COMPOSITE_TOLERANCE,
) -> NoetherReport:
    """Evaluate "p1 <|_t p2 == p1 for all t" in both directions.

    The points may be stacks with leading shape (...); t_samples then has
    shape (K,) or (..., K), and all K values are tried on every pair.
    """
    ts = np.asarray(t_samples, dtype=float)
    if ts.ndim == 0 or ts.shape[-1] == 0:
        raise ShapeError("need at least one t sample")
    fwd = _fixing_residual(X, p1, p2, ts)
    bwd = _fixing_residual(X, p2, p1, ts)
    return NoetherReport(
        fixes_forward=fwd <= tolerance,
        fixes_backward=bwd <= tolerance,
        forward_residual=fwd,
        backward_residual=bwd,
        algebra_gap=_fro(X.eval(p1) - X.eval(p2)),
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class NoetherSweepReport:
    samples: int
    seed: int
    disagreements: int
    equal_pair_max_residual: float
    equal_pairs_all_fix: bool
    tolerance: float

    @property
    def all_agree(self) -> bool:
        return self.disagreements == 0

    @property
    def passed(self) -> bool:
        return self.all_agree and self.equal_pairs_all_fix

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "disagreements": self.disagreements,
            "all_agree": self.all_agree,
            "equal_pair_max_residual": self.equal_pair_max_residual,
            "equal_pairs_all_fix": self.equal_pairs_all_fix,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def equal_section_pair(X: AdjointSection, rng: np.random.Generator, size=None) -> tuple[Point, Point]:
    """A pair of distinct points with X(p1) == X(p2) exactly, or a stack of pairs.

    Multiplying the fiber coordinate on the left by exp(a * Xs(m)) commutes
    with Xs(m), so the adjoint value is unchanged.
    """
    m, g = random_point(X, rng, size)
    a = rng.uniform(0.5, 1.5, size=size)
    return (m, g), (m, mat_exp(_col(a) * X.section_algebra_values[m]) @ g)


def noether_sweep(X: AdjointSection, config: SweepConfig) -> NoetherSweepReport:
    """Agreement of the directional predicates over random and equal-X pairs."""
    rng = np.random.default_rng(config.seed)
    n = config.samples
    ts = np.append(rng.uniform(*config.t_range, size=(n, 4)), np.ones((n, 1)), axis=1)
    p1, p2 = random_point(X, rng, n), random_point(X, rng, n)
    q1, q2 = equal_section_pair(X, rng, n)
    random_pairs = check_noether(X, p1, p2, ts, config.tolerance)
    equal_pairs = check_noether(X, q1, q2, ts, config.tolerance)
    return NoetherSweepReport(
        samples=n,
        seed=config.seed,
        disagreements=int(np.sum(~random_pairs.agree) + np.sum(~equal_pairs.agree)),
        equal_pair_max_residual=float(np.max([equal_pairs.forward_residual, equal_pairs.backward_residual])),
        equal_pairs_all_fix=bool(np.all(equal_pairs.fixes_forward & equal_pairs.fixes_backward)),
        tolerance=config.tolerance,
    )


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    axioms: dict[str, ResidualReport]
    noether: NoetherSweepReport
    section_equivariance: ResidualReport

    @property
    def passed(self) -> bool:
        return (
            all(r.passed for r in self.axioms.values())
            and self.noether.passed
            and self.section_equivariance.passed
        )

    def to_json(self) -> dict:
        return {
            "model": self.config.model,
            "seed": self.config.seed,
            "config": self.config.to_json(),
            "axioms": {name: r.to_json() for name, r in self.axioms.items()},
            "section_equivariance": self.section_equivariance.to_json(),
            "noether": self.noether.to_json(),
            "passed": self.passed,
        }


def run_sweep(config: SweepConfig) -> SweepReport:
    """Build a seeded random section over the requested model and run every check."""
    model = get_model(config.model)
    rng = np.random.default_rng(config.seed)
    section = AdjointSection(model, random_algebra(model, rng, size=config.base_points))
    axioms = {
        "idempotency": check_idempotency(section, config),
        "self_action": check_self_action(section, config),
        "self_distributivity": check_self_distributivity(section, config),
        "key_identity": check_key_identity(section, config),
        "membership": check_membership(section, config),
    }
    return SweepReport(
        config=config,
        axioms=axioms,
        noether=noether_sweep(section, config),
        section_equivariance=check_section_equivariance(section, config),
    )
