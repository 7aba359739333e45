"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

import math

import numpy as np
import pytest

from gaugequandles import bundles, gauge, groups, lie, racks
from gaugequandles.errors import CentralizerViolation, NormalizerViolation
from conftest import every_map

ACCEPT_SEED = 20250809

SMALL_CATALOG = [n for n in groups.catalog_names() if groups.catalog(n).order <= 8]
BASE_SIZES = (1, 2, 3)

S3_PERMS = groups.symmetric_group_elements(3)
TRANSPOSITION = S3_PERMS.index((1, 0, 2))
THREE_CYCLE = S3_PERMS.index((1, 2, 0))


def _verdict(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num:>2} [{desc}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({desc}) failed"


@pytest.fixture(scope="module")
def instances():
    """Every gauge quandle over catalog |G| <= 8 and |M| in {1, 2, 3}."""
    out = []
    for name in SMALL_CATALOG:
        G = groups.catalog(name)
        for base_size in BASE_SIZES:
            b = bundles.DiscreteBundle(G, base_size)
            for f in every_map(b):
                out.append((b, f, gauge.build(f)))
    return out


@pytest.fixture(scope="module")
def sweeps():
    cfg = dict(base_points=3, samples=100, seed=ACCEPT_SEED, t_range=(-2.0, 2.0), tolerance=1e-8)
    return {
        "SO3": lie.run_sweep(lie.SweepConfig(model="SO3", **cfg)),
        "SU2": lie.run_sweep(lie.SweepConfig(model="SU2", **cfg)),
    }


def test_criterion_01_gauge_quandle_axioms(instances):
    ok = bool(instances)
    for b, f, q in instances:
        report = racks.verify_rack(q.table)
        bases = np.arange(b.total_size) // b.group.order
        ok = ok and report.is_quandle and bool(
            np.array_equal(bases[q.table.op], np.broadcast_to(bases[:, None], q.table.op.shape))
        )
    _verdict(1, "gauge-quandle axiom suite", ok)


def test_criterion_02_iota_consistency(instances):
    ok = True
    for _, f, q in instances:
        rack = gauge.rack_from_map(f)
        ok = ok and racks.associated_quandle(rack) == q.table
    _verdict(2, "associated quandle of the rack equals the built quandle", ok)


def test_criterion_03_over_a_point_generalized_alexander():
    ok = True
    for name in groups.catalog_names():
        G = groups.catalog(name)
        if G.order > 24:
            continue
        b = bundles.DiscreteBundle(G, 1)
        for f in every_map(b):
            expected = racks.generalized_alexander(
                G, G.inner_automorphism(f.section_values[0])
            )
            ok = ok and gauge.build(f).table == expected
    _verdict(3, "over a point: table equals the generalized Alexander quandle", ok)


def test_criterion_04_fiber_transport(instances):
    ok = True
    for b, f, q in instances:
        for m in range(b.base_size):
            transported = gauge.transport_fiber(q, m)
            expected = racks.generalized_alexander(
                b.group, b.group.inner_automorphism(f.section_values[m])
            )
            ok = ok and transported == expected
    _verdict(4, "every fiber transports to a generalized Alexander quandle", ok)


def test_criterion_05_reduced_quandles():
    G = groups.catalog("S3")
    b = bundles.DiscreteBundle(G, 1)
    H = groups.generated_subgroup(G, [THREE_CYCLE])
    norm = set(groups.normalizer(H).elements)
    right_cosets = groups.cosets(H, "right")
    ok = True
    for f in every_map(b):
        q = gauge.build(f)
        if any(int(v) not in norm for v in f.total_values()):
            continue  # outside the criterion's scope (never happens: H is normal)
        red = gauge.reduce(q, H)
        # Re-verify well-definedness over all representative pairs directly
        for p1 in range(b.total_size):
            for p2 in range(b.total_size):
                i, j = int(red.class_of[p1]), int(red.class_of[p2])
                ok = ok and int(red.class_of[q.table.op[p1, p2]]) == red.table.op[i, j]
        ok = ok and racks.verify_rack(red.table).is_quandle
        c = f.section_values[0]
        if groups.centralizes(c, H):
            hom = gauge.homogeneous_quandle(H, c)
            ident = [right_cosets.index(cls) for cls in red.classes]
            ok = ok and sorted(ident) == list(range(len(right_cosets)))
            ok = ok and racks.is_morphism(ident, red.table, hom)
        else:
            with pytest.raises(CentralizerViolation):
                gauge.homogeneous_quandle(H, c)
    _verdict(5, "reduced quandle suite on S3 with the rotation subgroup", ok)


def test_criterion_06_gauge_group_isomorphism():
    ok = True
    checked = 0
    for name in groups.catalog_names():
        G = groups.catalog(name)
        for base_size in BASE_SIZES:
            if G.order**base_size > 256:
                continue
            b = bundles.DiscreteBundle(G, base_size)
            maps = every_map(b)
            perms = {f.section_values: bundles.to_gauge(f).values for f in maps}
            # injective
            ok = ok and len({tuple(v.tolist()) for v in perms.values()}) == len(maps)
            # identity to identity
            ident = bundles.identity_map(b)
            ok = ok and bool(np.array_equal(perms[ident.section_values], np.arange(b.total_size)))
            # multiplicative with the documented orientation:
            # to_gauge(f1 * f2) == to_gauge(f1) after to_gauge(f2)
            for f1 in maps:
                v1 = perms[f1.section_values]
                for f2 in maps:
                    composite = bundles.compose_maps(f1, f2)
                    ok = ok and bool(
                        np.array_equal(perms[composite.section_values], v1[perms[f2.section_values]])
                    )
            checked += 1
    _verdict(6, f"map-to-gauge group isomorphism over {checked} full enumerations", ok)


def test_criterion_07_lie_axiom_residuals(sweeps):
    ok = True
    for name, report in sweeps.items():
        for axiom in ("self_action", "self_distributivity", "idempotency", "key_identity"):
            rep = report.axioms[axiom]
            ok = ok and rep.samples == 100 and rep.max_residual <= 1e-8
    _verdict(7, "Lie-quandle residuals on SO(3) and SU(2) at 1e-8", ok)


def test_criterion_08_noether_agreement(sweeps):
    ok = True
    for name, report in sweeps.items():
        noe = report.noether
        ok = ok and noe.samples == 100
        ok = ok and noe.disagreements == 0
        ok = ok and noe.equal_pairs_all_fix
        ok = ok and noe.equal_pair_max_residual <= 1e-8
    _verdict(8, "directional fixing predicates agree; equal-section pairs fix", ok)


def test_criterion_09_mat_exp_oracles():
    rng = np.random.default_rng(ACCEPT_SEED)
    ok = True
    for _ in range(100):
        vx, vy, vz = rng.uniform(-3.0, 3.0, size=3)
        K = np.array([[0.0, -vz, vy], [vz, 0.0, -vx], [-vy, vx, 0.0]])
        theta = math.sqrt(vx * vx + vy * vy + vz * vz)
        rodrigues = (
            np.eye(3)
            + math.sin(theta) / theta * K
            + (1 - math.cos(theta)) / theta**2 * (K @ K)
        )
        ok = ok and float(np.linalg.norm(lie.mat_exp(K) - rodrigues)) <= 1e-10
        s, t = rng.uniform(-2.0, 2.0, size=2)
        law = float(np.linalg.norm(lie.mat_exp(s * K) @ lie.mat_exp(t * K) - lie.mat_exp((s + t) * K)))
        ok = ok and law <= 1e-10
    _verdict(9, "matrix exponential vs closed form and subgroup law at 1e-10", ok)


def test_criterion_10_negative_controls():
    ok = True

    # A single mutated entry must be caught with a checkable witness.
    base = racks.conjugation_quandle(groups.catalog("S3"))
    op = base.op.copy()
    op[0, 1] = (op[0, 1] + 1) % 6
    mutated = racks.magma_from_table(op)
    report = racks.verify_rack(mutated)
    ok = ok and not report.is_quandle
    ok = ok and bool(
        len(report.sd_violations) or len(report.bijectivity_violations) or len(report.idem_violations)
    )
    for x, y, z in report.sd_violations:
        ok = ok and op[op[x, y], z] != op[op[x, z], op[y, z]]
    for y in report.bijectivity_violations:
        ok = ok and sorted(op[:, y].tolist()) != list(range(6))
    for x in report.idem_violations:
        ok = ok and op[x, x] != x

    # A subgroup outside its normalizer must be rejected with a witness.
    G = groups.catalog("S3")
    b = bundles.DiscreteBundle(G, 1)
    H = groups.generated_subgroup(G, [TRANSPOSITION])
    q = gauge.build(bundles.EquivariantMap(b, (THREE_CYCLE,)))
    try:
        gauge.reduce(q, H)
        ok = False
    except NormalizerViolation as err:
        p, h = err.witness
        v = q.map.total_values()[p]
        ok = ok and h in H.elements
        ok = ok and G.conj[h, v] not in H.elements

    _verdict(10, "negative controls report correct witnesses", ok)
