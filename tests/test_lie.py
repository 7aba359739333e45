import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg

from gaugequandles import lie
from gaugequandles.errors import CapExceeded, NonFinite, ShapeError


def rodrigues(v):
    """Closed-form exponential of the antisymmetric matrix of axis vector v."""
    vx, vy, vz = v
    K = np.array([[0.0, -vz, vy], [vz, 0.0, -vx], [-vy, vx, 0.0]])
    theta = math.sqrt(vx * vx + vy * vy + vz * vz)
    if theta == 0.0:
        return np.eye(3)
    return np.eye(3) + math.sin(theta) / theta * K + (1 - math.cos(theta)) / theta**2 * (K @ K)


def so3_matrix(v):
    vx, vy, vz = v
    return np.array([[0.0, -vz, vy], [vz, 0.0, -vx], [-vy, vx, 0.0]])


def test_mat_exp_zero():
    assert np.array_equal(lie.mat_exp(np.zeros((3, 3))), np.eye(3))


def test_mat_exp_quarter_turn():
    A = so3_matrix((0.0, 0.0, math.pi / 2))
    R = lie.mat_exp(A)
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.linalg.norm(R - expected) < 1e-12
    assert np.linalg.norm(R - rodrigues((0.0, 0.0, math.pi / 2))) < 1e-12


def test_mat_exp_against_rodrigues_sweep():
    rng = np.random.default_rng(101)
    for _ in range(100):
        v = rng.uniform(-3.0, 3.0, size=3)
        assert np.linalg.norm(lie.mat_exp(so3_matrix(v)) - rodrigues(v)) < 1e-10


def test_mat_exp_one_parameter_subgroup_law():
    rng = np.random.default_rng(5)
    for _ in range(50):
        A = rng.normal(size=(3, 3))
        A = A - A.T
        s, t = rng.uniform(-2.0, 2.0, size=2)
        lhs = lie.mat_exp(s * A) @ lie.mat_exp(t * A)
        rhs = lie.mat_exp((s + t) * A)
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_mat_exp_against_scipy_general_matrices():
    # Including non-normal inputs, where eigendecompositions go wrong
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            A = rng.normal(scale=1.5, size=(n, n))
            rel = np.linalg.norm(lie.mat_exp(A) - scipy.linalg.expm(A)) / max(
                1.0, np.linalg.norm(scipy.linalg.expm(A))
            )
            assert rel < 1e-12


def test_mat_exp_stack_against_scipy_per_slice():
    # One stack whose norms need from 0 to many squarings; each slice gets its own count
    rng = np.random.default_rng(19)
    scales = np.array([0.0, 1e-3, 0.3, 0.5, 0.51, 2.0, 9.0, 40.0])
    A = rng.normal(size=(len(scales), 4, 4))
    A = A / np.linalg.norm(A, axis=(1, 2))[:, None, None] * scales[:, None, None]
    stacked = lie.mat_exp(A)
    assert stacked.shape == A.shape
    for a, e in zip(A, stacked):
        ref = scipy.linalg.expm(a)
        assert np.linalg.norm(e - ref) / max(1.0, np.linalg.norm(ref)) < 1e-12
        assert np.linalg.norm(lie.mat_exp(a) - e) <= 1e-14 * max(1.0, np.linalg.norm(ref))
    nested = lie.mat_exp(A.reshape(2, 4, 4, 4))
    assert np.array_equal(nested.reshape(A.shape), stacked)


def test_mat_exp_complex():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.linalg.norm(lie.mat_exp(A) - scipy.linalg.expm(A)) < 1e-12


def test_mat_exp_rejects_non_finite():
    with pytest.raises(NonFinite):
        lie.mat_exp(np.array([[0.0, np.nan], [0.0, 0.0]]))
    with pytest.raises(ShapeError):
        lie.mat_exp(np.zeros((2, 3)))


def test_models_validate():
    so3 = lie.get_model("SO3")
    su2 = lie.get_model("SU2")
    assert so3.dim == 3 and len(so3.algebra_basis) == 3
    assert su2.dim == 2 and len(su2.algebra_basis) == 3
    gl = lie.get_model("GL2")
    assert gl.dim == 2 and len(gl.algebra_basis) == 4


def test_membership_residuals():
    so3 = lie.get_model("SO3")
    assert lie.membership_residual(so3, np.eye(3)) < 1e-15
    assert lie.membership_residual(so3, 2 * np.eye(3)) > 1.0
    # det = -1 reflections are not members
    refl = np.diag([1.0, 1.0, -1.0])
    assert lie.membership_residual(so3, refl) > 1.0
    su2 = lie.get_model("SU2")
    assert lie.membership_residual(su2, np.eye(2)) < 1e-15


def test_random_group_elements_are_members():
    rng = np.random.default_rng(23)
    for name in ("SO3", "SU2"):
        model = lie.get_model(name)
        for _ in range(25):
            g = lie.random_group_element(model, rng)
            assert lie.membership_residual(model, g) < 1e-12


def test_sampled_bundle_rejects_no_base_points():
    with pytest.raises(ShapeError, match="at least one base point"):
        lie.AdjointSection(lie.get_model("SO3"), ())


def test_adjoint_section_rejects_a_bare_matrix():
    # One (3, 3) matrix is not three base points of 3-vectors.
    with pytest.raises(ShapeError, match=r"\(base_points, 3, 3\) stack"):
        lie.AdjointSection(lie.get_model("SO3"), lie._SO3_BASIS[0])
    with pytest.raises(ShapeError, match=r"\(base_points, 2, 2\) stack"):
        lie.AdjointSection(lie.get_model("SU2"), [np.zeros((3, 3))])


def test_model_basis_must_be_a_stack_of_matrices():
    for basis in (lie._SO3_BASIS[0], (), lie._SU2_BASIS):
        with pytest.raises(ShapeError, match=r"\(k, 3, 3\) stack"):
            lie.MatrixGroupModel("SO3", 3, basis, unitary=True, real=True)


def test_adjoint_section_equivariance():
    rng = np.random.default_rng(31)
    for name in ("SO3", "SU2"):
        model = lie.get_model(name)
        X = lie.AdjointSection(model, tuple(lie.random_algebra(model, rng) for _ in range(3)))
        report = lie.check_section_equivariance(X, lie.SweepConfig(model=name, samples=40, seed=31))
        assert report.samples == 40 and report.tolerance == lie.PRIMITIVE_TOLERANCE
        assert report.passed and report.max_residual < 1e-12


def test_op_t_degenerate_cases():
    rng = np.random.default_rng(41)
    model = lie.get_model("SO3")
    X = lie.AdjointSection(model, tuple(lie.random_algebra(model, rng) for _ in range(2)))
    p1 = lie.random_point(X, rng)
    p2 = lie.random_point(X, rng)

    m, g = lie.op_t(X, p1, p2, 0.0)
    assert m == p1[0] and np.linalg.norm(g - p1[1]) < 1e-15

    m, g = lie.op_t(X, p1, p1, 1.3)
    assert m == p1[0] and np.linalg.norm(g - p1[1]) < 1e-13

    zero = lie.AdjointSection(model, (np.zeros((3, 3)), np.zeros((3, 3))))
    m, g = lie.op_t(zero, p1, p2, 1.7)
    assert np.linalg.norm(g - p1[1]) < 1e-15

    with pytest.raises(NonFinite):
        lie.op_t(X, p1, p2, float("nan"))


def test_op_t_stays_in_group_and_on_base():
    rng = np.random.default_rng(43)
    model = lie.get_model("SU2")
    X = lie.AdjointSection(model, tuple(lie.random_algebra(model, rng) for _ in range(3)))
    for _ in range(30):
        p1, p2 = lie.random_point(X, rng), lie.random_point(X, rng)
        t = rng.uniform(-2.0, 2.0)
        m, g = lie.op_t(X, p1, p2, t)
        assert m == p1[0]
        assert lie.membership_residual(model, g) < 1e-12


@pytest.mark.parametrize("name", ["SO3", "SU2"])
def test_op_t_and_membership_on_a_stack_match_per_slice_calls(name):
    rng = np.random.default_rng(83)
    model = lie.get_model(name)
    X = lie.AdjointSection(model, lie.random_algebra(model, rng, size=3))
    p1, p2 = lie.random_point(X, rng, 12), lie.random_point(X, rng, 12)
    t = rng.uniform(-2.0, 2.0, size=12)
    m, g = lie.op_t(X, p1, p2, t)
    residuals = lie.membership_residual(model, g)
    assert m.shape == (12,) and g.shape == (12, model.dim, model.dim) and residuals.shape == (12,)
    for i in range(12):
        mi, gi = lie.op_t(X, (p1[0][i], p1[1][i]), (p2[0][i], p2[1][i]), t[i])
        assert mi == m[i]
        assert np.linalg.norm(gi - g[i]) < 1e-14
        assert abs(lie.membership_residual(model, gi) - residuals[i]) < 1e-14


def test_membership_residual_stack_marks_bad_slices():
    so3 = lie.get_model("SO3")
    stack = np.array([np.eye(3), 2 * np.eye(3), np.full((3, 3), np.nan)])
    r = lie.membership_residual(so3, stack)
    assert r[0] < 1e-15 and r[1] > 1.0 and r[2] == np.inf
    assert lie.membership_residual(so3, np.eye(2)) == np.inf


@pytest.mark.parametrize("name", ["GL0", "GL-1", "GLx", "GL", "GL2.5", "GL 2", "GL٣", "gl2", "E8"])
def test_get_model_rejects_malformed_names(name):
    with pytest.raises(ShapeError, match="unknown matrix group model"):
        lie.get_model(name)


@pytest.mark.parametrize("n", [lie.GL_DIM_CAP + 1, 10**40])
def test_get_model_caps_gl_size(n):
    with pytest.raises(CapExceeded, match="cap"):
        lie.get_model(f"GL{n}")


def test_get_model_gl_at_the_cap():
    n = lie.GL_DIM_CAP
    model = lie.get_model(f"GL{n}")
    assert model.dim == n and len(model.algebra_basis) == n * n
    assert model.name == f"GL{n}"
    with pytest.raises(ShapeError, match="unknown matrix group model"):
        lie.get_model("GL2-dense")


def _setup(name, seed):
    rng = np.random.default_rng(seed)
    model = lie.get_model(name)
    return lie.AdjointSection(model, tuple(lie.random_algebra(model, rng) for _ in range(3)))


def test_self_action_zero_section_is_exact():
    model = lie.get_model("SO3")
    rng = np.random.default_rng(47)
    zero = lie.AdjointSection(model, (np.zeros((3, 3)), np.zeros((3, 3))))
    rep = lie.check_self_action(zero, lie.SweepConfig(samples=20, seed=1))
    assert rep.max_residual == 0.0


def test_axiom_checks_pass_on_both_models():
    for name in ("SO3", "SU2"):
        X = _setup(name, 53)
        plan = lie.SweepConfig(samples=60, seed=53)
        assert lie.check_idempotency(X, plan).passed
        assert lie.check_self_action(X, plan).passed
        assert lie.check_self_distributivity(X, plan).passed
        assert lie.check_key_identity(X, plan).passed


def test_self_distributivity_reduces_to_self_action_when_z_equals_y():
    X = _setup("SO3", 59)
    rng = np.random.default_rng(59)
    for _ in range(20):
        x, y = lie.random_point(X, rng), lie.random_point(X, rng)
        t, s = rng.uniform(-2.0, 2.0, size=2)
        lhs = lie.op_t(X, lie.op_t(X, x, y, t), y, s)
        rhs = lie.op_t(X, lie.op_t(X, x, y, s), lie.op_t(X, y, y, s), t)
        assert np.linalg.norm(lhs[1] - rhs[1]) < 1e-10


def test_noether_same_point():
    X = _setup("SO3", 61)
    rng = np.random.default_rng(61)
    p = lie.random_point(X, rng)
    rep = lie.check_noether(X, p, p, [0.5, 1.0, -1.7])
    assert rep.fixes_forward and rep.fixes_backward and rep.agree
    assert rep.algebra_gap < 1e-15


def test_noether_zero_section_always_fixes():
    model = lie.get_model("SU2")
    rng = np.random.default_rng(67)
    zero = lie.AdjointSection(model, (np.zeros((2, 2), dtype=complex),) * 2)
    p1, p2 = lie.random_point(zero, rng), lie.random_point(zero, rng)
    rep = lie.check_noether(zero, p1, p2, [1.0, 2.0])
    assert rep.fixes_forward and rep.fixes_backward


def test_noether_generic_pairs_fail_both_ways():
    X = _setup("SO3", 71)
    rng = np.random.default_rng(71)
    for _ in range(20):
        p1, p2 = lie.random_point(X, rng), lie.random_point(X, rng)
        rep = lie.check_noether(X, p1, p2, rng.uniform(-2, 2, size=5))
        assert rep.agree
        if rep.algebra_gap > 1e-6:
            assert not rep.fixes_forward and not rep.fixes_backward


def test_equal_section_pairs_fix_both_ways():
    X = _setup("SU2", 73)
    rng = np.random.default_rng(73)
    for _ in range(20):
        p1, p2 = lie.equal_section_pair(X, rng)
        assert np.linalg.norm(p1[1] - p2[1]) > 1e-6  # genuinely distinct points
        rep = lie.check_noether(X, p1, p2, rng.uniform(-2, 2, size=5))
        assert rep.fixes_forward and rep.fixes_backward and rep.agree
        assert rep.algebra_gap < 1e-12


def test_check_noether_requires_samples():
    X = _setup("SO3", 79)
    rng = np.random.default_rng(79)
    p = lie.random_point(X, rng)
    with pytest.raises(ShapeError):
        lie.check_noether(X, p, p, [])


def test_sweep_config_json_round_trip(tmp_path):
    cfg = lie.SweepConfig(model="SU2", base_points=3, samples=50, seed=9, t_range=(-1.0, 1.0), tolerance=1e-8)
    obj = cfg.to_json()
    assert lie.SweepConfig.from_json(obj) == cfg
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(obj))
    assert lie.SweepConfig.from_json(json.loads(path.read_text())) == cfg
    with pytest.raises(ShapeError):
        lie.SweepConfig.from_json({"samples": 3})


@pytest.mark.parametrize("model", ["SO3", "SU2", "GL2"])
def test_sweep_config_from_json_takes_the_dataclass_defaults(model):
    assert lie.SweepConfig.from_json({"model": model}) == lie.SweepConfig(model=model)
    assert lie.SweepConfig.from_json({"model": model, "seed": 4}) == lie.SweepConfig(model=model, seed=4)


def test_sweep_config_counts_take_numpy_integers():
    cfg = lie.SweepConfig(model="SO3", base_points=np.int64(2), samples=np.int32(5), seed=np.uint8(7))
    assert cfg == lie.SweepConfig(model="SO3", base_points=2, samples=5, seed=7)
    assert all(type(v) is int for v in (cfg.base_points, cfg.samples, cfg.seed))
    assert cfg.to_json()["seed"] == 7


@pytest.mark.parametrize(
    "override, message",
    [
        ({"model": 3}, "string"),
        ({"samples": 2.7}, "integer"),
        ({"base_points": "2"}, "integer"),
        ({"seed": True}, "integer"),
        ({"tolerance": "1e-8"}, "number"),
        ({"t_range": [-1, True]}, "number"),
        ({"t_range": 5}, r"\[lo, hi\]"),
        ({"sample": 5}, "'sample'"),
        ({"tolerence": 1e-20}, "'tolerence'"),
    ],
)
def test_sweep_config_from_json_is_strict(override, message):
    with pytest.raises(ShapeError, match=message):
        lie.SweepConfig.from_json({"model": "SO3", "seed": 1, **override})


def test_run_sweep_report_fields():
    report = lie.run_sweep(lie.SweepConfig(model="SO3", samples=25, seed=12345))
    obj = report.to_json()
    assert obj["passed"] is True
    assert obj["seed"] == 12345
    assert set(obj["axioms"]) == {
        "idempotency", "self_action", "self_distributivity", "key_identity", "membership",
    }
    for rep in obj["axioms"].values():
        assert rep["seed"] == 12345
        assert rep["max_residual"] <= rep["tolerance"]
    assert obj["noether"]["passed"] is True
    assert obj["section_equivariance"]["tolerance"] == 1e-12


def test_every_sweep_draw_takes_the_config_sample_count(monkeypatch):
    sizes = []
    draw = lie.random_point

    def recording(X, rng, size=None):
        sizes.append(size)
        return draw(X, rng, size)

    monkeypatch.setattr(lie, "random_point", recording)
    report = lie.run_sweep(lie.SweepConfig(samples=7, seed=1))
    assert report.passed and report.section_equivariance.samples == 7
    assert sizes and all(size == 7 for size in sizes)


@pytest.mark.parametrize("field, cap", [("samples", lie.SAMPLES_CAP), ("base_points", lie.BASE_POINTS_CAP)])
def test_sweep_config_caps_samples_and_base_points(field, cap):
    # At the cap a config constructs; it is not run.
    assert getattr(lie.SweepConfig(model="SO3", **{field: cap}), field) == cap
    for value in (cap + 1, 10**12):
        with pytest.raises(CapExceeded, match="at most"):
            lie.SweepConfig(model="SO3", **{field: value})
        with pytest.raises(CapExceeded, match="at most"):
            dataclasses.replace(lie.SweepConfig(model="SO3"), **{field: value})


@pytest.mark.parametrize("name", ["GL4", "GL8", "GL16"])
def test_gl_sweeps_pass_at_the_default_settings(name):
    assert lie.run_sweep(lie.SweepConfig(model=name, samples=100, seed=1)).passed


def test_sweep_is_deterministic():
    a = lie.run_sweep(lie.SweepConfig(model="SU2", samples=30, seed=777))
    b = lie.run_sweep(lie.SweepConfig(model="SU2", samples=30, seed=777))
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize(
    "field, value",
    [
        ("samples", 0),
        ("base_points", 0),
        ("t_range", (1.0, -1.0)),
        ("t_range", (-math.inf, 1.0)),
        ("t_range", (math.nan, 1.0)),
        ("tolerance", 0.0),
        ("tolerance", -1.0),
        ("tolerance", math.nan),
        ("tolerance", math.inf),
        ("samples", True),
        ("base_points", 2.0),
        ("seed", 1.5),
        ("seed", True),
        ("seed", np.True_),
        ("base_points", "3"),
        ("samples", None),
    ],
)
def test_sweep_config_rejects_uncheckable_runs(field, value):
    with pytest.raises(ShapeError, match=field):
        lie.SweepConfig(model="SO3", **{field: value})
    with pytest.raises(ShapeError, match=field):
        dataclasses.replace(lie.SweepConfig(model="SO3"), **{field: value})
