"""One oracle across the finite and the Lie halves of the library.

For a finite subgroup rho: G -> SU(2) or SO(3), take the adjoint section with
Xs(m) = log rho(f(s(m))). Then exp(X(p)) = rho(f(p)) at every point, so at
t = 1 the smooth operation p1 * exp(-X(p1)) * exp(X(p2)) is rho applied to
the finite gauge quandle p1 * f(p1)^-1 * f(p2) that `build` makes. Q8 sits in
SU(2) as the quaternion units +-1, +-i, +-j, +-k in catalog order. In SO(3),
Z_n and D_n are r^k s^e with r the rotation by 2 pi / n about z and s the
half turn about x, S3 is sign(sigma) times its permutation matrix, and S4 is
sign(sigma) times its permutation action on the sum-zero subspace of R^4.
"""

import math

import numpy as np
import pytest

from gaugequandles import bundles, gauge, groups, lie

Q8 = groups.catalog("Q8")
_I = 2 * lie._SU2_BASIS[0]
_J = 2 * lie._SU2_BASIS[1]
_K = _I @ _J
_UNITS = (np.eye(2, dtype=complex), _I, _J, _K)

# Catalog order: +1, -1, +i, -i, +j, -j, +k, -k.
RHO = np.array([sign * u for u in _UNITS for sign in (1, -1)])

# exp of each log is the element. The principal log of -1 has trace 2*pi*i,
# outside su(2), so -1 takes pi times the unit 2*_SU2_BASIS[2] instead; a
# unit u with u^2 = -1 has exp((pi/2) u) = u.
LOG = np.array(
    [np.zeros((2, 2), dtype=complex), math.pi * 2 * lie._SU2_BASIS[2]]
    + [math.pi / 2 * RHO[g] for g in range(2, 8)]
)


def test_q8_embeds_in_su2():
    model = lie.get_model("SU2")
    assert np.allclose(_K @ _K, -np.eye(2)) and np.allclose(_J @ _K, _I)
    # rho(a * b) == rho(a) rho(b) for every pair
    assert np.allclose(RHO[Q8.table], RHO[:, None] @ RHO[None, :], atol=lie.PRIMITIVE_TOLERANCE)
    assert np.max(lie.membership_residual(model, RHO)) <= lie.PRIMITIVE_TOLERANCE
    assert np.max(lie.algebra_residual(model, LOG)) <= lie.PRIMITIVE_TOLERANCE
    assert np.max(np.abs(lie.mat_exp(LOG) - RHO)) <= lie.PRIMITIVE_TOLERANCE


def assert_op_t_at_one_is_rho(model, G, rho, log, section_values):
    """op_t(X, ., ., 1) on every pair of total points against rho of `build`'s table."""
    b = bundles.DiscreteBundle(G, len(section_values))
    q = gauge.build(bundles.EquivariantMap(b, section_values))
    X = lie.AdjointSection(model, log[list(section_values)])

    # Every pair (p1, p2) of total points, each as the Lie point (m, rho(g)).
    p1, p2 = np.indices((b.total_size, b.total_size))
    m, g = lie.op_t(X, (b.base(p1), rho[b.coord(p1)]), (b.base(p2), rho[b.coord(p2)]), 1.0)

    product = q.table.op  # product[p1, p2] = p1 <|f p2
    assert np.array_equal(m, b.base(product))
    assert np.max(np.abs(g - rho[b.coord(product)])) <= lie.PRIMITIVE_TOLERANCE


@pytest.mark.parametrize(
    "section_values", [(1, 2, 5), (4, 6, 0), (0, 3, 6, 7), (1, 1, 5, 2)], ids=str
)
def test_op_t_at_one_is_rho_of_the_gauge_quandle(section_values):
    assert_op_t_at_one_is_rho(lie.get_model("SU2"), Q8, RHO, LOG, section_values)


# ---------------------------------------------------------------------------
# Finite subgroups of SO(3)
# ---------------------------------------------------------------------------

def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


HALF_TURN_X = np.diag([1.0, -1.0, -1.0])


def permutation_matrices(n):
    """P[k] sends e_i to e_sigma(i) for the k-th permutation in catalog order, so P[a*b] = P[a] P[b]."""
    perms = np.array(groups.symmetric_group_elements(n))
    P = np.zeros((len(perms), n, n))
    P[np.arange(len(perms))[:, None], perms, np.arange(n)] = 1.0
    return P


def signs(P):
    """sign(sigma) of each permutation matrix, shaped to scale a stack of matrices."""
    return np.rint(np.linalg.det(P))[:, None, None]


# Orthonormal basis of the sum-zero subspace of R^4, one vector per column.
SUM_ZERO = np.array(
    [[1, 1, 1], [-1, 1, 1], [0, -2, 1], [0, 0, -3]], dtype=float
) / np.sqrt([2.0, 6.0, 12.0])


def so3_rep(name):
    kind, n = name[0], int(name[1:])
    if kind == "S":
        P = permutation_matrices(n)
        return signs(P) * (P if n == 3 else SUM_ZERO.T @ P @ SUM_ZERO)
    rotations = [rot_z(2 * math.pi * k / n) for k in range(n)]
    if kind == "Z":
        return np.array(rotations)
    return np.array([r @ s for s in (np.eye(3), HALF_TURN_X) for r in rotations])


SO3_NAMES = [f"{kind}{n}" for kind in "ZD" for n in range(2, 7)] + ["S3", "S4"]


def so3_log(R):
    """Axis-angle log of a rotation; the half-turn case is read off the trace.

    Away from a half turn, log R = theta / (2 sin theta) (R - R^T). A half
    turn R = 2 n n^T - I has R = R^T, so the axis n comes from (R + I) / 2.
    """
    cos = (np.trace(R) - 1) / 2
    if cos < -1 + 1e-9:
        S = (R + np.eye(3)) / 2
        j = int(np.argmax(np.diag(S)))
        axis = S[:, j] / math.sqrt(S[j, j])
        return math.pi * np.einsum("k,kij->ij", axis, np.array(lie._SO3_BASIS))
    theta = math.acos(min(1.0, cos))
    return (R - R.T) / (2 * np.sinc(theta / math.pi))  # theta / sin(theta) = 1 / sinc(theta / pi)


@pytest.mark.parametrize("name", SO3_NAMES)
def test_finite_subgroups_embed_faithfully_in_so3(name):
    model, G, rho = lie.get_model("SO3"), groups.catalog(name), so3_rep(name)
    log = np.array([so3_log(R) for R in rho])
    assert np.allclose(rho[G.table], rho[:, None] @ rho[None, :], atol=lie.PRIMITIVE_TOLERANCE)
    assert len(np.unique(np.round(rho, 6), axis=0)) == G.order
    assert np.max(lie.membership_residual(model, rho)) <= lie.PRIMITIVE_TOLERANCE
    assert np.max(lie.algebra_residual(model, log)) <= lie.PRIMITIVE_TOLERANCE
    assert np.max(np.abs(lie.mat_exp(log) - rho)) <= lie.PRIMITIVE_TOLERANCE


@pytest.mark.parametrize("name", SO3_NAMES)
def test_op_t_at_one_is_rho_of_the_so3_gauge_quandle(name):
    G, rho = groups.catalog(name), so3_rep(name)
    log = np.array([so3_log(R) for R in rho])
    assert np.max(np.abs(lie.mat_exp(log) - rho)) <= lie.PRIMITIVE_TOLERANCE
    n = G.order
    assert_op_t_at_one_is_rho(lie.get_model("SO3"), G, rho, log, (n - 1, 1, n // 2))
