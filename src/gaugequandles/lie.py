"""Numerical Lie-quandle checks over matrix groups.

The parametrized operation on sampled bundle points is
    p1 <|_t p2 = p1 * exp(-t X(p1)) * exp(t X(p2)),
where X assigns a Lie-algebra matrix to every point through an adjoint
section: X(m, g) = g^-1 * Xs(m) * g. The check_* functions sample the
Lie-quandle axioms (self-action, self-distributivity, idempotency), the
conjugation identity behind them, and the Noether fixing equivalence, and
report max Frobenius-norm residuals against a tolerance.

All randomness is seeded; every report carries its seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NonFinite, ShapeError

# Truncation order for the scaled Taylor series; at argument norm <= 0.5 the
# remainder is far below double precision.
_EXP_TAYLOR_ORDER = 16

DEFAULT_COMPOSITE_TOLERANCE = 1e-8
PRIMITIVE_TOLERANCE = 1e-12


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring a truncated Taylor series.

    The argument is halved until its Frobenius norm is <= 0.5, the series is
    summed by Horner's rule, and the result squared back. Dimension-agnostic
    and valid for non-normal input.
    """
    A = np.asarray(a)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"matrix exponential needs a square matrix, got shape {A.shape}")
    if not np.issubdtype(A.dtype, np.inexact):
        A = A.astype(np.float64)
    if not np.all(np.isfinite(A)):
        raise NonFinite("matrix exponential of a non-finite matrix")

    norm = float(np.linalg.norm(A))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    B = A / (2.0**squarings)

    eye = np.eye(A.shape[0], dtype=B.dtype)
    result = eye.copy()
    for k in range(_EXP_TAYLOR_ORDER, 0, -1):
        result = eye + (B @ result) / k
    for _ in range(squarings):
        result = result @ result
    return result


# ---------------------------------------------------------------------------
# Matrix group models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MatrixGroupModel:
    """A matrix group with a basis of its Lie algebra and a membership test."""

    name: str
    dim: int
    algebra_basis: tuple[np.ndarray, ...]
    tolerance: float = 1e-9

    def __post_init__(self):
        for B in self.algebra_basis:
            r = algebra_residual(self, B)
            if r > self.tolerance:
                raise ShapeError(f"{self.name} basis matrix violates algebra constraints ({r:.2e})")
            r = membership_residual(self, mat_exp(B))
            if r > self.tolerance:
                raise ShapeError(f"exp of a {self.name} basis matrix leaves the group ({r:.2e})")


def algebra_residual(model: MatrixGroupModel, A) -> float:
    """Distance from the model's algebra constraints (0 when satisfied)."""
    A = np.asarray(A)
    if A.shape != (model.dim, model.dim):
        return float("inf")
    if model.name == "SO3":
        if np.iscomplexobj(A) and np.abs(A.imag).max() > 0:
            return float(np.abs(A.imag).max())
        return float(np.linalg.norm(A + A.T))
    if model.name == "SU2":
        return max(float(np.linalg.norm(A + A.conj().T)), abs(complex(np.trace(A))))
    return 0.0  # gl(n): no constraint


def membership_residual(model: MatrixGroupModel, M) -> float:
    """Frobenius distance from the group's defining relations."""
    M = np.asarray(M)
    if M.shape != (model.dim, model.dim) or not np.all(np.isfinite(M)):
        return float("inf")
    eye = np.eye(model.dim)
    if model.name == "SO3":
        return max(
            float(np.linalg.norm(M.T @ M - eye)),
            abs(float(np.linalg.det(M)) - 1.0),
            float(np.abs(M.imag).max()) if np.iscomplexobj(M) else 0.0,
        )
    if model.name == "SU2":
        return max(
            float(np.linalg.norm(M.conj().T @ M - eye)),
            abs(complex(np.linalg.det(M)) - 1.0),
        )
    return 0.0 if abs(np.linalg.det(M)) > 1e-12 else float("inf")


def group_inverse(model: MatrixGroupModel, M: np.ndarray) -> np.ndarray:
    if model.name == "SO3":
        return M.T
    if model.name == "SU2":
        return M.conj().T
    return np.linalg.inv(M)


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


def get_model(name: str, tolerance: float = 1e-9) -> MatrixGroupModel:
    """Look up a model: "SO3", "SU2", or dense general linear "GL<n>"."""
    if name == "SO3":
        return MatrixGroupModel("SO3", 3, _SO3_BASIS, tolerance)
    if name == "SU2":
        return MatrixGroupModel("SU2", 2, _SU2_BASIS, tolerance)
    if name.startswith("GL"):
        n = int(name[2:].removesuffix("-dense"))
        basis = []
        for i in range(n):
            for j in range(n):
                E = np.zeros((n, n))
                E[i, j] = 1.0
                basis.append(E)
        return MatrixGroupModel(f"GL{n}-dense", n, tuple(basis), tolerance)
    raise ShapeError(f"unknown matrix group model {name!r}")


def random_algebra(model: MatrixGroupModel, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    coeffs = rng.uniform(-scale, scale, size=len(model.algebra_basis))
    out = sum(c * B for c, B in zip(coeffs, model.algebra_basis))
    return np.asarray(out)


def random_group_element(model: MatrixGroupModel, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return mat_exp(random_algebra(model, rng, scale))


# ---------------------------------------------------------------------------
# Sampled bundles, adjoint sections, and the parametrized operation
# ---------------------------------------------------------------------------

Point = tuple[int, np.ndarray]  # (base index, group matrix)


@dataclass(frozen=True, eq=False)
class SampledBundle:
    """A finite sample of bundle points standing in for M x G."""

    model: MatrixGroupModel
    base_points: int
    points: tuple[Point, ...]

    def __post_init__(self):
        if self.base_points < 1:
            raise ShapeError("need at least one base point")
        for m, g in self.points:
            if not 0 <= m < self.base_points:
                raise ShapeError(f"base index {m} out of range")
            r = membership_residual(self.model, g)
            if r > self.model.tolerance:
                raise ShapeError(f"sampled matrix is not a group member (residual {r:.2e})")


def sample_bundle(
    model: MatrixGroupModel,
    base_points: int,
    points_per_base: int,
    rng: np.random.Generator,
) -> SampledBundle:
    pts = tuple(
        (m, random_group_element(model, rng))
        for m in range(base_points)
        for _ in range(points_per_base)
    )
    return SampledBundle(model=model, base_points=base_points, points=pts)


@dataclass(frozen=True, eq=False)
class AdjointSection:
    """One algebra matrix per base point; X(m, g) = g^-1 * Xs(m) * g."""

    bundle: SampledBundle
    section_algebra_values: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.section_algebra_values) != self.bundle.base_points:
            raise ShapeError("need one algebra value per base point")
        model = self.bundle.model
        for A in self.section_algebra_values:
            r = algebra_residual(model, A)
            if r > model.tolerance:
                raise ShapeError(f"section value violates algebra constraints ({r:.2e})")

    def eval(self, p: Point) -> np.ndarray:
        m, g = p
        return group_inverse(self.bundle.model, g) @ self.section_algebra_values[m] @ g

    def equivariance_residual(self, rng: np.random.Generator, samples: int = 50) -> float:
        """Max residual of X(p*g) == g^-1 X(p) g over random (p, g)."""
        model = self.bundle.model
        worst = 0.0
        for _ in range(samples):
            p = random_point(self.bundle, rng)
            g = random_group_element(model, rng)
            moved = self.eval((p[0], p[1] @ g))
            conjugated = group_inverse(model, g) @ self.eval(p) @ g
            worst = max(worst, float(np.linalg.norm(moved - conjugated)))
        return worst


def random_point(b: SampledBundle, rng: np.random.Generator) -> Point:
    m = int(rng.integers(b.base_points))
    return (m, random_group_element(b.model, rng))


def op_t(b: SampledBundle, X: AdjointSection, p1: Point, p2: Point, t: float) -> Point:
    """p1 <|_t p2 = (m1, g1 * exp(-t X(p1)) * exp(t X(p2)))."""
    if not math.isfinite(t):
        raise NonFinite(f"parameter t = {t!r}")
    m1, g1 = p1
    return (m1, g1 @ mat_exp(-t * X.eval(p1)) @ mat_exp(t * X.eval(p2)))


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplePlan:
    """How to drive a randomized check: sample count, seed, t window, tolerance."""

    samples: int = 100
    seed: int = 0
    t_range: tuple[float, float] = (-2.0, 2.0)
    tolerance: float = DEFAULT_COMPOSITE_TOLERANCE


@dataclass(frozen=True)
class ResidualReport:
    check: str
    samples: int
    seed: int
    max_residual: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "samples": self.samples,
            "seed": self.seed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _report(check: str, plan: SamplePlan, residual: float, tolerance: float | None = None) -> ResidualReport:
    tol = plan.tolerance if tolerance is None else tolerance
    return ResidualReport(
        check=check,
        samples=plan.samples,
        seed=plan.seed,
        max_residual=residual,
        tolerance=tol,
        passed=residual <= tol,
    )


def _gap(p: Point, q: Point) -> float:
    return float(np.linalg.norm(p[1] - q[1])) if p[0] == q[0] else float("inf")


def check_idempotency(b: SampledBundle, X: AdjointSection, plan: SamplePlan) -> ResidualReport:
    """x <|_s x == x."""
    rng = np.random.default_rng(plan.seed)
    worst = 0.0
    for _ in range(plan.samples):
        x = random_point(b, rng)
        s = rng.uniform(*plan.t_range)
        worst = max(worst, _gap(op_t(b, X, x, x, s), x))
    return _report("idempotency", plan, worst)


def check_self_action(b: SampledBundle, X: AdjointSection, plan: SamplePlan) -> ResidualReport:
    """(x <|_t y) <|_s y == x <|_{s+t} y."""
    rng = np.random.default_rng(plan.seed)
    worst = 0.0
    for _ in range(plan.samples):
        x, y = random_point(b, rng), random_point(b, rng)
        t, s = rng.uniform(*plan.t_range, size=2)
        lhs = op_t(b, X, op_t(b, X, x, y, t), y, s)
        rhs = op_t(b, X, x, y, s + t)
        worst = max(worst, _gap(lhs, rhs))
    return _report("self_action", plan, worst)


def check_self_distributivity(b: SampledBundle, X: AdjointSection, plan: SamplePlan) -> ResidualReport:
    """(x <|_t y) <|_s z == (x <|_s z) <|_t (y <|_s z)."""
    rng = np.random.default_rng(plan.seed)
    worst = 0.0
    for _ in range(plan.samples):
        x, y, z = (random_point(b, rng) for _ in range(3))
        t, s = rng.uniform(*plan.t_range, size=2)
        lhs = op_t(b, X, op_t(b, X, x, y, t), z, s)
        rhs = op_t(b, X, op_t(b, X, x, z, s), op_t(b, X, y, z, s), t)
        worst = max(worst, _gap(lhs, rhs))
    return _report("self_distributivity", plan, worst)


def check_key_identity(b: SampledBundle, X: AdjointSection, plan: SamplePlan) -> ResidualReport:
    """exp(t X(p1 * exp(s X(p2)))) == exp(-s X(p2)) exp(t X(p1)) exp(s X(p2)).

    The conjugation identity that makes the other axioms work.
    """
    rng = np.random.default_rng(plan.seed)
    worst = 0.0
    for _ in range(plan.samples):
        p1, p2 = random_point(b, rng), random_point(b, rng)
        t, s = rng.uniform(*plan.t_range, size=2)
        h = mat_exp(s * X.eval(p2))
        moved = (p1[0], p1[1] @ h)
        lhs = mat_exp(t * X.eval(moved))
        rhs = mat_exp(-s * X.eval(p2)) @ mat_exp(t * X.eval(p1)) @ h
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return _report("key_identity", plan, worst)


def check_membership(b: SampledBundle, X: AdjointSection, plan: SamplePlan) -> ResidualReport:
    """Operation results stay in the group (chart residual)."""
    rng = np.random.default_rng(plan.seed)
    worst = 0.0
    for _ in range(plan.samples):
        x, y = random_point(b, rng), random_point(b, rng)
        t = rng.uniform(*plan.t_range)
        worst = max(worst, membership_residual(b.model, op_t(b, X, x, y, t)[1]))
    return _report("membership", plan, worst)


# ---------------------------------------------------------------------------
# Noether property
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoetherReport:
    """Both directional fixing predicates for one pair, plus the algebra gap.

    The sampled "for all t" predicates are backed by the algebra-level
    criterion ||X(p1) - X(p2)|| <= tolerance, which implies fixing for every
    t, not only the sampled ones.
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

    def to_json(self) -> dict:
        return {
            "fixes_forward": self.fixes_forward,
            "fixes_backward": self.fixes_backward,
            "forward_residual": self.forward_residual,
            "backward_residual": self.backward_residual,
            "algebra_gap": self.algebra_gap,
            "tolerance": self.tolerance,
            "agree": self.agree,
        }


def check_noether(
    b: SampledBundle,
    X: AdjointSection,
    p1: Point,
    p2: Point,
    t_samples: Sequence[float],
    tolerance: float = DEFAULT_COMPOSITE_TOLERANCE,
) -> NoetherReport:
    """Evaluate "p1 <|_t p2 == p1 for all t" in both directions."""
    if len(t_samples) == 0:
        raise ShapeError("need at least one t sample")
    fwd = max(_gap(op_t(b, X, p1, p2, t), p1) for t in t_samples)
    bwd = max(_gap(op_t(b, X, p2, p1, t), p2) for t in t_samples)
    gap = float(np.linalg.norm(X.eval(p1) - X.eval(p2)))
    return NoetherReport(
        fixes_forward=fwd <= tolerance,
        fixes_backward=bwd <= tolerance,
        forward_residual=fwd,
        backward_residual=bwd,
        algebra_gap=gap,
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


def equal_section_pair(
    b: SampledBundle, X: AdjointSection, rng: np.random.Generator
) -> tuple[Point, Point]:
    """A pair of distinct points with X(p1) == X(p2) exactly.

    Multiplying the fiber coordinate on the left by exp(a * Xs(m)) commutes
    with Xs(m), so the adjoint value is unchanged.
    """
    p1 = random_point(b, rng)
    a = rng.uniform(0.5, 1.5)
    p2 = (p1[0], mat_exp(a * X.section_algebra_values[p1[0]]) @ p1[1])
    return p1, p2


def noether_sweep(b: SampledBundle, X: AdjointSection, plan: SamplePlan) -> NoetherSweepReport:
    """Agreement of the directional predicates over random and equal-X pairs."""
    rng = np.random.default_rng(plan.seed)
    disagreements = 0
    equal_max = 0.0
    equal_all_fix = True
    for _ in range(plan.samples):
        ts = np.append(rng.uniform(*plan.t_range, size=4), 1.0)
        p1, p2 = random_point(b, rng), random_point(b, rng)
        if check_noether(b, X, p1, p2, ts, plan.tolerance).agree is False:
            disagreements += 1
        q1, q2 = equal_section_pair(b, X, rng)
        rep = check_noether(b, X, q1, q2, ts, plan.tolerance)
        equal_max = max(equal_max, rep.forward_residual, rep.backward_residual)
        if not (rep.fixes_forward and rep.fixes_backward):
            equal_all_fix = False
        if not rep.agree:
            disagreements += 1
    return NoetherSweepReport(
        samples=plan.samples,
        seed=plan.seed,
        disagreements=disagreements,
        equal_pair_max_residual=equal_max,
        equal_pairs_all_fix=equal_all_fix,
        tolerance=plan.tolerance,
    )


# ---------------------------------------------------------------------------
# Sweep driver and its JSON config
#   {"model": "SO3"|"SU2", "base_points": int, "samples": int, "seed": int,
#    "t_range": [lo, hi], "tolerance": real}
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
        if self.samples < 1 or self.base_points < 1:
            raise ShapeError("a sweep needs samples >= 1 and base_points >= 1")
        lo, hi = self.t_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ShapeError(f"t_range must be finite with lo <= hi, got {list(self.t_range)}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ShapeError(f"tolerance must be finite and > 0, got {self.tolerance}")

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "base_points": self.base_points,
            "samples": self.samples,
            "seed": self.seed,
            "t_range": list(self.t_range),
            "tolerance": self.tolerance,
        }

    @staticmethod
    def from_json(obj) -> "SweepConfig":
        if not isinstance(obj, dict) or "model" not in obj:
            raise ShapeError("sweep config must carry at least a 'model'")
        try:
            lo, hi = obj.get("t_range", (-2.0, 2.0))
            return SweepConfig(
                model=str(obj["model"]),
                base_points=int(obj.get("base_points", 3)),
                samples=int(obj.get("samples", 100)),
                seed=int(obj.get("seed", 0)),
                t_range=(float(lo), float(hi)),
                tolerance=float(obj.get("tolerance", DEFAULT_COMPOSITE_TOLERANCE)),
            )
        except TypeError as exc:  # null, list or object where a number belongs
            raise ShapeError(f"malformed sweep config: {exc}") from exc


def load_sweep_config(path: str | Path) -> SweepConfig:
    return SweepConfig.from_json(json.loads(Path(path).read_text()))


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
    bundle = sample_bundle(model, config.base_points, points_per_base=2, rng=rng)
    section = AdjointSection(
        bundle, tuple(random_algebra(model, rng) for _ in range(config.base_points))
    )
    plan = SamplePlan(
        samples=config.samples,
        seed=config.seed,
        t_range=config.t_range,
        tolerance=config.tolerance,
    )
    axioms = {
        "idempotency": check_idempotency(bundle, section, plan),
        "self_action": check_self_action(bundle, section, plan),
        "self_distributivity": check_self_distributivity(bundle, section, plan),
        "key_identity": check_key_identity(bundle, section, plan),
        "membership": check_membership(bundle, section, plan),
    }
    eq_res = section.equivariance_residual(np.random.default_rng(config.seed), samples=50)
    section_eq = _report("section_equivariance", plan, eq_res, tolerance=PRIMITIVE_TOLERANCE)
    noether = noether_sweep(bundle, section, plan)
    return SweepReport(
        config=config,
        axioms=axioms,
        noether=noether,
        section_equivariance=section_eq,
    )
