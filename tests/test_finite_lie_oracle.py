"""One oracle across the finite and the Lie halves of the library.

For a finite subgroup rho: G -> SU(2), take the adjoint section with
Xs(m) = log rho(f(s(m))). Then exp(X(p)) = rho(f(p)) at every point, so at
t = 1 the smooth operation p1 * exp(-X(p1)) * exp(X(p2)) is rho applied to
the finite gauge quandle p1 * f(p1)^-1 * f(p2) that `build` makes. Q8 sits in
SU(2) as the quaternion units +-1, +-i, +-j, +-k in catalog order.
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


@pytest.mark.parametrize(
    "section_values", [(1, 2, 5), (4, 6, 0), (0, 3, 6, 7), (1, 1, 5, 2)], ids=str
)
def test_op_t_at_one_is_rho_of_the_gauge_quandle(section_values):
    b = bundles.DiscreteBundle(Q8, len(section_values))
    q = gauge.build(bundles.EquivariantMap(b, section_values))
    X = lie.AdjointSection(lie.get_model("SU2"), LOG[list(section_values)])

    # Every pair (p1, p2) of total points, each as the Lie point (m, rho(g)).
    p1, p2 = np.indices((b.total_size, b.total_size))
    m, g = lie.op_t(X, (b.base(p1), RHO[b.coord(p1)]), (b.base(p2), RHO[b.coord(p2)]), 1.0)

    product = q.table.op  # product[p1, p2] = p1 <|f p2
    assert np.array_equal(m, b.base(product))
    assert np.max(np.abs(g - RHO[b.coord(product)])) <= lie.PRIMITIVE_TOLERANCE
