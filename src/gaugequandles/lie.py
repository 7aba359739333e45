"""Numerical Lie-quandle checks over matrix groups.

The parametrized operation on sampled bundle points is
    p1 <|_t p2 = p1 * exp(-t X(p1)) * exp(t X(p2)),
where X assigns a Lie-algebra matrix to every point through an adjoint
section: X(m, g) = g^-1 * Xs(m) * g. The check_* functions sample the
Lie-quandle axioms (self-action, self-distributivity, idempotency) and the
conjugation identity behind them, and noether_sweep the Noether fixing
equivalence; all report max Frobenius-norm residuals against a tolerance.

Everything broadcasts over leading axes: a point (m, g) is one base index
with one (d, d) matrix, or an int array of shape (...) with a (..., d, d)
stack. A sweep draws its sample stacks once, one call per random stream:
the six checks share the same points x, y, z and parameters t, s, and the
Noether sweep draws its own. The six checks read one evaluation plan, which
builds each value of X and each exponential that two checks share once, in
stacked rounds, and keeps only the residuals. The Noether sweep runs its
random and equal-X pairs, in both directions, through one op_t call. Both
are chunked to bound memory, and exponentiate along flows exp(tA).

All randomness is seeded; every report carries its seed.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import CapExceeded, NonFinite, ShapeError, excerpt, int_field, json_int, json_real

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

# Chunk a sweep's stacked samples and pairs to bound peak memory: at most
# about this many matrix entries in each stack the checks build.
_SWEEP_CHUNK_ELEMENTS = 1 << 17

# Largest n accepted in a "GL<n>" model name. The basis alone holds n^2 dense
# n x n matrices (n^4 floats), and each is exponentiated before any check runs.
GL_DIM_CAP = 16


# The identity matrix of each dimension, built once; no caller writes to it.
_eye = functools.lru_cache(maxsize=GL_DIM_CAP + 1)(np.eye)


def _fro(a) -> np.ndarray:
    """Frobenius norm over the last two axes, squared by einsum, not through np.linalg.norm's Python layers."""
    a = np.asarray(a)
    square = np.einsum("...ij,...ij->...", a.real, a.real)
    if a.dtype.kind == "c":
        square = square + np.einsum("...ij,...ij->...", a.imag, a.imag)
    return np.sqrt(square)


def _stack(arrays) -> np.ndarray:
    """np.stack of same-shape arrays as one np.concatenate, without np.stack's Python layers."""
    return np.concatenate(arrays).reshape(len(arrays), *arrays[0].shape)


def _col(t) -> np.ndarray:
    """Scalars of shape (...) as (..., 1, 1), to scale a stack of matrices."""
    return np.asarray(t, dtype=float)[..., None, None]


def _adjoint(M) -> np.ndarray:
    """Conjugate transpose of each matrix."""
    return np.asarray(M).swapaxes(-1, -2).conj()


def _mul(A, B) -> np.ndarray:
    """A @ B over the last two axes, broadcasting the leading ones.

    numpy's @ costs about 0.4 us per matrix on small complex stacks, so a
    complex product is summed from d outer products instead. Real stacks
    keep @: summed, an SO3 sweep of 8 to 80 samples takes 40-60% longer.
    """
    A, B = np.asarray(A), np.asarray(B)
    if A.dtype.kind != "c" and B.dtype.kind != "c":
        return A @ B
    out = A[..., :, 0, None] * B[..., None, 0, :]
    for k in range(1, A.shape[-1]):
        out += A[..., :, k, None] * B[..., None, k, :]
    return out


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring a truncated Taylor series.

    Takes one (d, d) matrix or a (..., d, d) stack. Each matrix is halved
    until its Frobenius norm is <= 0.5, the series is summed by Horner's
    rule, and the result squared back as often as that matrix was halved.
    Dimension-agnostic and valid for non-normal input. Raises NonFinite, with
    the argument's norm, when the norm or the result overflows.
    """
    A = np.asarray(a)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ShapeError(f"matrix exponential needs square matrices, got shape {A.shape}")
    if A.dtype.kind not in "fc":
        A = A.astype(np.float64)
    if not np.isfinite(A).all():
        raise NonFinite("matrix exponential of a non-finite matrix")

    # An overflowing norm or product leaves a non-finite result, checked once below.
    with np.errstate(all="ignore"):
        norms = _fro(A)
        squarings = np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5)).astype(int)
        B = A / _col(2.0**squarings)

        eye = _eye(A.shape[-1])
        result = eye
        for k in range(_EXP_TAYLOR_ORDER, 0, -1):
            result = eye + (B @ result) / k
        for i in range(squarings.max(initial=0)):
            result = np.where((squarings > i)[..., None, None], result @ result, result)
    if not np.isfinite(result).all():
        bad = ~np.isfinite(result).all(axis=(-2, -1))
        raise NonFinite(f"matrix exponential overflows at argument norm {norms[bad].max():.3g}")
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
    algebra_basis: np.ndarray  # given as any sequence of (dim, dim) matrices, stored as one read-only stack
    unitary: bool = False
    real: bool = False

    def __post_init__(self):
        basis = np.array(self.algebra_basis)
        d = self.dim
        if basis.shape[:1] == (0,) or basis.shape[1:] != (d, d):
            raise ShapeError(f"{self.name} basis must be a (k, {d}, {d}) stack with k >= 1, got shape {basis.shape}")
        basis.setflags(write=False)
        object.__setattr__(self, "algebra_basis", basis)
        r = algebra_residual(self, basis).max()
        if r > MODEL_TOLERANCE:
            raise ShapeError(f"{self.name} basis matrix violates algebra constraints ({r:.2e})")
        # The Taylor series is the independent reference: exp must agree with it
        # on the basis, which a sign slip would not (the sweep is symmetric in t).
        reference = mat_exp(basis)
        r = membership_residual(self, reference).max()
        if r > MODEL_TOLERANCE:
            raise ShapeError(f"exp of a {self.name} basis matrix leaves the group ({r:.2e})")
        r = _fro(self.exp(basis) - reference).max()
        if not r <= MODEL_TOLERANCE:
            raise ShapeError(f"{self.name} exp disagrees with the Taylor series on its basis ({r:.2e})")

    def exp(self, A) -> np.ndarray:
        """Exponential of one algebra matrix or a (..., dim, dim) stack of them: flow(A, 1.0)."""
        return self.flow(A, 1.0)

    def flow(self, A, t) -> np.ndarray:
        """exp(tA) on the one-parameter subgroup of each algebra matrix in A.

        A is one (dim, dim) matrix or a (..., dim, dim) stack; t, a scalar or
        an array that broadcasts with A's leading shape, scales it as
        t[..., None, None]. so(3) satisfies A^3 = -theta^2 A with theta =
        ||A||_F / sqrt(2), so Rodrigues' formula exp(tA) = I + sin(t theta)/theta A
        + (1 - cos(t theta))/theta^2 A^2 is exact there. On a traceless
        anti-Hermitian 2 x 2 matrix (su(2), so(2)) Cayley-Hamilton gives
        A^2 = -det(A) I = -theta^2 I, so exp(tA) = cos(t theta) I + sin(t theta)/theta A.
        theta and A^2 are computed once per matrix of A, and each t costs a
        sine and a cosine. Past |t| theta * 2^-53 > MODEL_TOLERANCE a double
        keeps no digit of the angle, and that argument raises NonFinite, as a
        NaN or infinite entry does. Other models use mat_exp(tA).
        """
        if not (self.unitary and (self.dim == 2 or (self.dim == 3 and self.real))):
            return mat_exp(_col(t) * A)
        A = np.asarray(A)
        norm = _fro(A)
        # Where A is 0, or too small to square, a floor far below any angle
        # that matters gives both ratios their limits t and t^2/2.
        theta = np.maximum(norm * math.sqrt(0.5), 1e-300)
        angle = t * theta
        # False for a NaN or infinite angle too, so one test guards both.
        if not (abs(angle) <= MODEL_TOLERANCE * 2.0**53).all():
            if not (np.isfinite(A).all() and np.isfinite(t).all()):
                raise NonFinite("matrix exponential of a non-finite matrix")
            raise NonFinite(
                f"matrix exponential overflows at argument norm {(abs(t) * norm).max():.3g}: "
                "no digit of its rotation angle survives in double precision"
            )
        inverse = 1.0 / theta
        sin_term = (np.sin(angle) * inverse)[..., None, None]
        if self.dim == 2:
            return np.cos(angle)[..., None, None] * _eye(2) + sin_term * A
        half = np.sin(0.5 * angle) * inverse
        return _eye(3) + sin_term * A + (2.0 * half * half)[..., None, None] * (A @ A)

    def inverse(self, M) -> np.ndarray:
        if self.unitary:
            return _adjoint(M)
        try:
            return np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise NonFinite(
                f"a sampled {self.name} element is numerically singular and has no inverse; narrow t_range"
            ) from None


def _imag_residual(A) -> np.ndarray:
    return np.abs(A.imag).max(axis=(-2, -1))


def algebra_residual(model: MatrixGroupModel, A):
    """Distance of each (dim, dim) matrix in A from the model's algebra constraints (0 when satisfied)."""
    A = np.asarray(A)
    r = np.zeros(A.shape[:-2])
    if model.unitary:
        r = np.maximum(_fro(A + _adjoint(A)), np.abs(A.trace(axis1=-2, axis2=-1)))
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
        r = np.maximum(_fro(_mul(_adjoint(M), M) - _eye(model.dim)), np.abs(det - 1.0))
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
            f"unknown matrix group model {excerpt(name)}; expected SO3, SU2 or GL<n> with n a positive integer"
        )
    digits = gl[1]
    if len(digits) > len(str(GL_DIM_CAP)) or int(digits) > GL_DIM_CAP:
        raise CapExceeded(f"model {excerpt(name)} exceeds the GL<n> size cap n <= {GL_DIM_CAP}")
    n = int(digits)
    return MatrixGroupModel(f"GL{n}", n, np.eye(n * n).reshape(n * n, n, n))


def random_algebra(model: MatrixGroupModel, rng: np.random.Generator, size=None) -> np.ndarray:
    """One random algebra matrix, or a stack of shape (*size, d, d).

    The k basis coefficients are uniform in [-sqrt(3/k), sqrt(3/k)], so the
    coefficient vector has expected squared length 1 for every model; for
    the 3-dimensional SO3 and SU2 algebras the range is [-1, 1].
    """
    shape = () if size is None else size if isinstance(size, tuple) else (size,)
    k = len(model.algebra_basis)
    bound = math.sqrt(3 / k)
    coeffs = rng.uniform(-bound, bound, size=(*shape, k))
    return np.einsum("...k,kij->...ij", coeffs, model.algebra_basis)


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
        if not np.isfinite(values).all():
            raise NonFinite("section values must be finite")
        r = algebra_residual(self.model, values).max()
        if r > MODEL_TOLERANCE:
            raise ShapeError(f"section value violates algebra constraints ({r:.2e})")
        values.setflags(write=False)
        object.__setattr__(self, "section_algebra_values", values)

    @property
    def base_points(self) -> int:
        return len(self.section_algebra_values)

    def eval(self, p: Point) -> np.ndarray:
        m, g = p
        return _mul(_mul(self.model.inverse(g), self.section_algebra_values[m]), g)


def random_point(X: AdjointSection, rng: np.random.Generator, size=None) -> Point:
    """One random point of X's bundle, or a stack of them with leading shape `size`."""
    return (rng.integers(X.base_points, size=size), X.model.exp(random_algebra(X.model, rng, size)))


def op_t(X: AdjointSection, p1: Point, p2: Point, t) -> Point:
    """p1 <|_t p2 = (m1, g1 * exp(-t X(p1)) * exp(t X(p2))).

    t is a scalar or an array that broadcasts with the points' leading shape.
    """
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise NonFinite("parameter t must be finite")
    m1, g1 = p1
    flow = X.model.flow
    return (m1, _mul(_mul(g1, flow(X.eval(p1), -t)), flow(X.eval(p2), t)))


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
            raise ShapeError(f"model must be a string, got {excerpt(self.model)}")
        for name in ("base_points", "samples", "seed"):
            object.__setattr__(self, name, int_field(getattr(self, name), name))
        if self.samples < 1 or self.base_points < 1:
            raise ShapeError("a sweep needs samples >= 1 and base_points >= 1")
        if self.seed < 0:
            raise ShapeError(f"seed must be >= 0, got {excerpt(self.seed)}")
        if self.samples > SAMPLES_CAP or self.base_points > BASE_POINTS_CAP:
            raise CapExceeded(f"a sweep takes at most {SAMPLES_CAP} samples and {BASE_POINTS_CAP} base points")
        if not isinstance(self.t_range, (list, tuple)) or len(self.t_range) != 2:
            raise ShapeError(f"t_range must be a list [lo, hi], got {excerpt(self.t_range)}")
        object.__setattr__(self, "t_range", tuple(json_real(v, "t_range") for v in self.t_range))
        object.__setattr__(self, "tolerance", json_real(self.tolerance, "tolerance"))
        lo, hi = self.t_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ShapeError(f"t_range must be finite with lo <= hi, got {list(self.t_range)}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ShapeError(f"tolerance must be finite and > 0, got {self.tolerance}")

    def to_json(self) -> dict:
        return {**vars(self), "t_range": list(self.t_range)}

    @staticmethod
    def from_json(obj) -> "SweepConfig":
        if not isinstance(obj, dict) or "model" not in obj:
            raise ShapeError("sweep config must carry at least a 'model'")
        keys = [f.name for f in fields(SweepConfig)]
        unknown = sorted(set(obj) - set(keys))
        if unknown:
            raise ShapeError(f"unknown sweep config key {excerpt(unknown[0])}; expected only {', '.join(keys)}")
        # Only the keys present, in field order; counts take integral floats such as 2.0.
        counts = ("base_points", "samples", "seed")
        return SweepConfig(**{k: json_int(obj[k], k) if k in counts else obj[k] for k in keys if k in obj})


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
        return {**vars(self), "max_residual": _json_residual(self.max_residual)}


def _json_residual(r: float) -> float | None:
    """r, or None (JSON null) where r is not finite, as a GL membership residual of inf is: JSON has no inf or NaN."""
    return r if math.isfinite(r) else None


def _report(check: str, config: SweepConfig, residuals, tolerance: float | None = None) -> ResidualReport:
    tol = config.tolerance if tolerance is None else tolerance
    worst = float(residuals.max())
    return ResidualReport(
        check=check,
        samples=config.samples,
        seed=config.seed,
        max_residual=worst,
        tolerance=tol,
        passed=worst <= tol,
    )


def _draw(X: AdjointSection, config: SweepConfig) -> tuple:
    """Points x, y, z stacked on a leading axis of 3, then parameter stacks t, s; every array read-only."""
    rng = np.random.default_rng(config.seed)
    m, g = random_point(X, rng, (3, config.samples))
    t, s = rng.uniform(*config.t_range, size=(2, config.samples))
    for a in (m, g, t, s):
        a.setflags(write=False)
    return (m, g), t, s


_PLANNED_CHECKS = (
    "idempotency", "self_action", "self_distributivity", "key_identity", "section_equivariance", "membership",
)


@functools.lru_cache(maxsize=1)
def _plan(X: AdjointSection, config: SweepConfig) -> dict[str, np.ndarray]:
    """Per-sample residuals of the six sweep checks, keyed by check name.

    The checks of one sweep read these, so they are computed once per
    (X, config): X hashes by identity and the frozen config by value. Only
    the residuals are kept. The samples are taken in chunks that bound each
    stacked array.
    """
    (m, g), t, s = _draw(X, config)
    # The widest stack, the first round of exponentials, holds ten matrices a sample.
    chunk = max(1, _SWEEP_CHUNK_ELEMENTS // (10 * X.model.dim**2))
    chunks = [slice(start, start + chunk) for start in range(0, config.samples, chunk)]
    parts = [_plan_rows(X, m[:, rows], g[:, rows], t[rows], s[rows]) for rows in chunks]
    return dict(zip(_PLANNED_CHECKS, np.concatenate(parts, axis=1)))


def _plan_rows(X: AdjointSection, m, g, t, s) -> np.ndarray:
    """Residuals of the six checks, in _PLANNED_CHECKS order, on stacked samples: shape (6, samples).

    m and g hold the points x, y, z on their first axis. Every value two
    checks share is built once, in stacked rounds: X at x, y, z and ten
    exponentials of those values; the points w = x <|_t y,
    x <|_s z, y <|_s z, x * exp(s X(y)) and x * y; X at those five and four
    exponentials of them; the products each side of each check reads.
    """
    flow = X.model.flow
    gx, gy, _ = g
    V = X.eval((m, g))
    # Named by coefficient and point: msx = exp(-s X(x)), sty = exp((s+t) X(y)).
    coefficients = np.concatenate([-s, s, -t, t, -(s + t), t, s, -s, s + t, s]).reshape(10, -1)
    msx, sx, mtx, tx, mstx, ty, sy, msy, sty, sz = flow(V[[0, 0, 0, 0, 0, 1, 1, 1, 1, 2]], coefficients)
    # x * exp(-t X(x)), x * exp(-s X(x)), y * exp(-s X(y)), the key point, the
    # equivariance point x * y, and y^-1 X(x) as the head of its conjugation.
    head = _mul(_stack([gx, gx, gy, gx, gx, X.model.inverse(gy)]), _stack([mtx, msx, msy, sy, gy, V[0]]))
    w, u, _, conjugated = moved = _mul(head[[0, 1, 2, 5]], _stack([ty, sz, sz, gy]))
    W = X.eval((m[[0, 0, 1, 0, 0]], np.concatenate([moved[:3], head[3:5]])))
    msw, mtu, tv, t_key = flow(W[:4], np.concatenate([-s, -t, t, t]).reshape(4, -1))
    left = _mul(_stack([gx, w, gx, u, msy]), _stack([msx, msw, mstx, mtu, tx]))
    idem, sa_lhs, sd_lhs, sa_rhs, sd_rhs, key_rhs = _mul(left[[0, 1, 1, 2, 3, 4]], _stack([sx, sy, sz, sty, tv, sy]))
    gaps = _fro(_stack([idem - gx, sa_lhs - sa_rhs, sd_lhs - sd_rhs, t_key - key_rhs, W[4] - conjugated]))
    return np.concatenate([gaps, membership_residual(X.model, w)[None]])


def check_idempotency(X: AdjointSection, config: SweepConfig) -> ResidualReport:
    """x <|_s x == x."""
    return _report("idempotency", config, _plan(X, config)["idempotency"])


def check_self_action(X: AdjointSection, config: SweepConfig) -> ResidualReport:
    """(x <|_t y) <|_s y == x <|_{s+t} y."""
    return _report("self_action", config, _plan(X, config)["self_action"])


def check_self_distributivity(X: AdjointSection, config: SweepConfig) -> ResidualReport:
    """(x <|_t y) <|_s z == (x <|_s z) <|_t (y <|_s z)."""
    return _report("self_distributivity", config, _plan(X, config)["self_distributivity"])


def check_key_identity(X: AdjointSection, config: SweepConfig) -> ResidualReport:
    """exp(t X(x * exp(s X(y)))) == exp(-s X(y)) exp(t X(x)) exp(s X(y)).

    The conjugation identity that makes the other axioms work.
    """
    return _report("key_identity", config, _plan(X, config)["key_identity"])


def check_membership(X: AdjointSection, config: SweepConfig) -> ResidualReport:
    """Operation results x <|_t y stay in the group (chart residual)."""
    return _report("membership", config, _plan(X, config)["membership"])


def check_section_equivariance(X: AdjointSection, config: SweepConfig) -> ResidualReport:
    """X(x * g) == g^-1 X(x) g, g the fiber coordinate of y; held to PRIMITIVE_TOLERANCE."""
    return _report("section_equivariance", config, _plan(X, config)["section_equivariance"], PRIMITIVE_TOLERANCE)


# ---------------------------------------------------------------------------
# Noether property
# ---------------------------------------------------------------------------

def _fixing_residual(X: AdjointSection, p: Point, q: Point, ts: np.ndarray) -> np.ndarray:
    """Max over the last axis of ts of the distance from p <|_t q to p: "p <|_t q == p for all t", sampled."""
    p = (p[0][..., None], p[1][..., None, :, :])
    q = (q[0][..., None], q[1][..., None, :, :])
    return _gap(op_t(X, p, q, ts), p).max(axis=-1)


@dataclass(frozen=True)
class NoetherSweepReport:
    samples: int
    seed: int
    disagreements: int
    all_agree: bool
    equal_pair_max_residual: float
    equal_pairs_all_fix: bool
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {**vars(self), "equal_pair_max_residual": _json_residual(self.equal_pair_max_residual)}


def equal_section_pair(X: AdjointSection, p: Point, rng: np.random.Generator) -> tuple[Point, Point]:
    """p and a distinct point with the same value of X exactly; p may be a stack of points.

    Multiplying the fiber coordinate on the left by exp(a * Xs(m)) commutes
    with Xs(m), so the adjoint value is unchanged.
    """
    m, g = p
    a = rng.uniform(0.5, 1.5, size=np.shape(m))
    return p, (m, _mul(X.model.flow(X.section_algebra_values[m], a), g))


def noether_sweep(X: AdjointSection, config: SweepConfig) -> NoetherSweepReport:
    """Agreement of the directional predicates over random and equal-X pairs."""
    rng = np.random.default_rng(config.seed)
    n = config.samples
    ts = np.concatenate([rng.uniform(*config.t_range, size=(n, 4)), np.ones((n, 1))], axis=1)
    m, g = random_point(X, rng, (3, n))
    (_, gq1), (_, gq2) = equal_section_pair(X, (m[2], g[2]), rng)
    # Axes (direction, kind, sample): [p1, p2] acted on by [p2, p1], each the
    # random pairs and then the equal-X pairs, whose base points agree.
    m = m[[0, 2, 1, 2]].reshape(2, 2, n)
    g = np.concatenate([g[0], gq1, g[1], gq2]).reshape(2, 2, *g.shape[1:])
    # Samples per op_t call: each is acted on in 2 directions, for 2 kinds of pair, at every t.
    chunk = max(1, _SWEEP_CHUNK_ELEMENTS // (4 * ts.shape[1] * X.model.dim**2))
    res = np.empty((2, 2, n))
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        p = (m[:, :, rows], g[:, :, rows])
        res[..., rows] = _fixing_residual(X, p, (p[0][::-1], p[1][::-1]), ts[rows])
    fix_fwd, fix_bwd = res <= config.tolerance
    disagreements = int((fix_fwd != fix_bwd).sum())
    all_fix = bool((fix_fwd & fix_bwd)[1].all())
    return NoetherSweepReport(
        samples=n,
        seed=config.seed,
        disagreements=disagreements,
        all_agree=disagreements == 0,
        equal_pair_max_residual=float(res[:, 1].max()),
        equal_pairs_all_fix=all_fix,
        tolerance=config.tolerance,
        passed=disagreements == 0 and all_fix,
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

    def lines(self) -> list[str]:
        """The text form: the config, one line per check with its residual and verdict, the overall verdict."""
        c = self.config
        lines = [f"model {c.model}, seed {c.seed}, {c.samples} samples, tolerance {c.tolerance:g}"]
        for name, rep in {**self.axioms, "section_equivariance": self.section_equivariance}.items():
            status = "PASS" if rep.passed else "FAIL"
            lines.append(f"  {name:<22} max residual {rep.max_residual:.3e}  (tol {rep.tolerance:g})  {status}")
        noe = self.noether
        lines.append(
            f"  {'noether_agreement':<22} disagreements {noe.disagreements}, "
            f"equal-pair residual {noe.equal_pair_max_residual:.3e}  "
            f"{'PASS' if noe.passed else 'FAIL'}"
        )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return lines


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
