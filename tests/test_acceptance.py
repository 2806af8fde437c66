"""Acceptance suite: one test per criterion, at full stated scale.

Each criterion prints one PASS line directly to the terminal (bypassing
capture) after its assertions hold; a failure shows up as a normal pytest
failure instead of the line.  Criterion 11 (whole-suite wall clock under 60
seconds) cannot be observed from inside a test and is enforced by the
session hook in conftest.py, which prints its own verdict line.
"""

import math

import numpy as np
import pytest

from cyclicpoly import euclidean, hyperbolic, minkowski, specfun, spherical, variational
from cyclicpoly.domain import TWO_PI
from cyclicpoly.errors import (
    InfeasibleError,
    NoPolygonError,
    PerimeterError,
    ReverseInequalityError,
)

from oracles import clausen2_quad, clh2_quad, strict_lengths


def announce(capsys, text):
    with capsys.disabled():
        print(text)


def test_criterion_01_euclidean_round_trip(capsys):
    rng = np.random.default_rng(12345)
    worst_side = 0.0
    worst_angle = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 65))
        l = strict_lengths(rng, n, 1e-3, 1e3, log_uniform=True)
        sol = euclidean.solve_euclidean(l)
        d = np.roll(sol.vertices, -1, axis=0) - sol.vertices
        rec = np.linalg.norm(d, axis=1)
        worst_side = max(worst_side, float(np.max(np.abs(rec - l) / l)))
        worst_angle = max(
            worst_angle, abs(math.fsum(sol.angles.values.tolist()) - TWO_PI)
        )
    assert worst_side <= 1e-9
    assert worst_angle <= 1e-11
    announce(
        capsys,
        f"ACCEPTANCE 1 PASS: euclidean round trip on 1000 vectors "
        f"(worst side rel {worst_side:.2e} <= 1e-9, angle sum {worst_angle:.2e} <= 1e-11)",
    )


def test_criterion_02_dual_solver_agreement(capsys):
    rng = np.random.default_rng(23456)
    outside = 0
    worst = 0.0
    for k in range(200):
        n = int(rng.integers(3, 11))
        if k % 4 == 0:
            # engineered near-needle: the longest side cuts off the center
            base = rng.uniform(0.5, 1.5, n - 1)
            l = np.concatenate([base, [0.93 * base.sum()]])
        else:
            l = strict_lengths(rng, n, 0.3, 3.0)
        sol = euclidean.solve_euclidean(l)
        if not sol.center_inside:
            outside += 1
        alpha = variational.maximize_on_simplex(l)
        r_var = variational.check_critical_point(l, alpha)
        assert isinstance(r_var, float)
        worst = max(worst, abs(r_var - sol.radius) / sol.radius)
    assert worst <= 1e-8
    assert outside >= 20
    announce(
        capsys,
        f"ACCEPTANCE 2 PASS: dual-solver radius agreement on 200 instances "
        f"(worst rel delta {worst:.2e} <= 1e-8, {outside} center-outside cases)",
    )


def test_criterion_03_closed_form_anchors(capsys):
    r345 = euclidean.solve_euclidean([3, 4, 5]).radius
    assert abs(r345 - 2.5) <= 1e-12
    r111 = euclidean.solve_euclidean([1, 1, 1]).radius
    assert abs(r111 - 3 ** -0.5) <= 1e-12
    quad = euclidean.solve_euclidean([1, 2, 3, 4])
    area = euclidean.polygon_area(quad.vertices)
    assert abs(area - math.sqrt(24.0)) <= 1e-9
    announce(
        capsys,
        "ACCEPTANCE 3 PASS: anchors R(3,4,5)=2.5, R(1,1,1)=3^-1/2, "
        "area(1,2,3,4)=sqrt(24) at stated tolerances",
    )


def test_criterion_04_concavity_suite(capsys):
    rng = np.random.default_rng(34567)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(3, 13))
        a = rng.dirichlet(np.ones(n)) * TWO_PI
        b = rng.dirichlet(np.ones(n)) * TWO_PI
        if np.max(np.abs(a - b)) <= 1e-3:
            continue
        checked += 1
        mid = variational.v_n(0.5 * (a + b))
        assert mid > 0.5 * (variational.v_n(a) + variational.v_n(b))
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        a = rng.dirichlet(np.ones(n)) * TWO_PI
        merged = np.concatenate([a[: n - 2], [a[n - 2] + a[n - 1]]])
        tri = np.array([math.fsum(a[: n - 2].tolist()), a[n - 2], a[n - 1]])
        resid = abs(variational.v_n(a) - variational.v_n(merged) - variational.v_n(tri))
        worst = max(worst, resid)
    assert worst <= 1e-11
    announce(
        capsys,
        f"ACCEPTANCE 4 PASS: 1000 midpoint-concavity trials, "
        f"triangle cut-off identity residual {worst:.2e} <= 1e-11",
    )


def test_criterion_05_information_inequality(capsys):
    rng = np.random.default_rng(45678)
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        # entries bounded away from zero keep the equality threshold sharp
        p = rng.dirichlet(np.ones(n)) + 0.05
        q = rng.dirichlet(np.ones(n)) + 0.05
        p /= math.fsum(p.tolist())
        q /= math.fsum(q.tolist())
        kl = specfun.kl_divergence(p, q)
        assert kl >= -1e-14
        if np.max(np.abs(p - q)) > 1e-7:
            assert kl > 1e-12
    # tolerance-matched equality case
    for _ in range(50):
        n = int(rng.integers(2, 10))
        p = rng.dirichlet(np.ones(n)) + 0.05
        p /= math.fsum(p.tolist())
        assert specfun.kl_divergence(p, p) <= 1e-12
        q = p + rng.uniform(-1e-8, 1e-8, n)
        q[-1] = 1.0 - math.fsum(q[:-1].tolist())
        q /= math.fsum(q.tolist())
        assert specfun.kl_divergence(p, q) <= 1e-12
    announce(
        capsys,
        "ACCEPTANCE 5 PASS: KL >= -1e-14 on 1000 pairs, zero only at p = q "
        "(tolerance-matched)",
    )


def test_criterion_06_special_function_oracles(capsys):
    rng = np.random.default_rng(56789)
    worst_cl2 = 0.0
    for x in rng.uniform(-4 * math.pi, 4 * math.pi, 200):
        worst_cl2 = max(worst_cl2, abs(specfun.clausen2(float(x)) - clausen2_quad(float(x))))
    worst_clh2 = 0.0
    for x in rng.uniform(-50.0, 50.0, 200):
        worst_clh2 = max(worst_clh2, abs(specfun.clh2(float(x)) - clh2_quad(float(x))))
    worst_id = 0.0
    for x in rng.uniform(-50.0, 50.0, 100):
        worst_id = max(worst_id, abs(specfun.clh2(float(x)) - specfun.clh2_via_dilog(float(x))))
    assert worst_cl2 <= 1e-10
    assert worst_clh2 <= 1e-10
    assert worst_id <= 1e-10
    announce(
        capsys,
        f"ACCEPTANCE 6 PASS: quadrature agreement (Cl2 {worst_cl2:.2e}, "
        f"Clh2 {worst_clh2:.2e}), dilog identity {worst_id:.2e}, all <= 1e-10",
    )


def test_criterion_07_spherical(capsys):
    rng = np.random.default_rng(67890)
    worst_rbar = 0.0
    count = 0
    while count < 1000:
        n = int(rng.integers(3, 13))
        l = rng.uniform(0.1, 1.0, n)
        l *= rng.uniform(1.0, TWO_PI - 0.2) / l.sum()
        m = int(np.argmax(l))
        if l[m] >= math.fsum(np.delete(l, m).tolist()):
            continue
        count += 1
        sol = spherical.solve_spherical(l)
        worst_rbar = max(worst_rbar, sol.chordal_radius)
    assert worst_rbar < 1.0 - 1e-12
    octant = spherical.solve_spherical([math.pi / 2] * 3)
    for i in range(3):
        assert abs(float(octant.vertices[i] @ octant.vertices[(i + 1) % 3])) <= 1e-10
    # [pi/2] * 4 sums exactly to 2*pi - 2.4e-16: two ulps more on one side pass 2*pi
    with pytest.raises(PerimeterError):
        spherical.solve_spherical([math.pi / 2] * 3 + [math.pi / 2 + 2 * math.ulp(math.pi / 2)])
    announce(
        capsys,
        f"ACCEPTANCE 7 PASS: 1000 spherical solves with Rbar < 1 - 1e-12 "
        f"(max {worst_rbar:.6f}), octant triangle orthogonal, 2*pi perimeter rejected",
    )


def _hyperbolic_residuals(l, sol):
    v = sol.vertices
    q = v[:, 0] ** 2 + v[:, 1] ** 2 - v[:, 2] ** 2
    d = np.roll(v, -1, axis=0) - v
    chordal = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2 - d[:, 2] ** 2)
    rec = 2.0 * np.arcsinh(chordal / 2.0)
    return float(np.max(np.abs(q + 1.0))), float(np.max(np.abs(rec - l) / l))


def test_criterion_08_hyperbolic_trichotomy(capsys):
    rng = np.random.default_rng(78901)
    # constructed horocycle-threshold inputs classify within the band and
    # flip deterministically under +-1e-6 perturbation of the dominant side
    for _ in range(50):
        n = int(rng.integers(3, 9))
        base = rng.uniform(0.3, 1.2, n - 1)
        dom = 2 * math.asinh(math.fsum(np.sinh(base / 2).tolist()))
        l = np.concatenate([base, [dom]])
        assert hyperbolic.classify(l).kind == hyperbolic.HOROCYCLE
        up = l.copy()
        up[-1] += 1e-6
        down = l.copy()
        down[-1] -= 1e-6
        assert hyperbolic.classify(up).kind == hyperbolic.HYPERCYCLE
        assert hyperbolic.classify(down).kind == hyperbolic.CIRCLE

    worst_res = {"circle": 0.0, "horocycle": 0.0, "hypercycle": 0.0}
    worst_side = {"circle": 0.0, "horocycle": 0.0, "hypercycle": 0.0}
    counts = {"circle": 0, "horocycle": 0, "hypercycle": 0}
    while min(counts.values()) < 1000:
        n = int(rng.integers(3, 9))
        pick = min(counts, key=counts.get)
        if pick == "circle":
            l = rng.uniform(0.1, 0.9, n)
            m = int(np.argmax(l))
            if l[m] >= math.fsum(np.delete(l, m).tolist()):
                continue
            if hyperbolic.classify(l).kind != hyperbolic.CIRCLE:
                continue
        elif pick == "horocycle":
            base = rng.uniform(0.3, 1.2, n - 1)
            l = np.concatenate([base, [2 * math.asinh(math.fsum(np.sinh(base / 2).tolist()))]])
        else:
            base = rng.uniform(1.0, 3.0, n - 1)
            dom = 2 * math.asinh(
                rng.uniform(1.05, 1.8) * math.fsum(np.sinh(base / 2).tolist())
            )
            if dom >= math.fsum(base.tolist()):
                continue
            l = np.concatenate([base, [dom]])
            if hyperbolic.classify(l).kind != hyperbolic.HYPERCYCLE:
                continue
        sol = hyperbolic.solve_hyperbolic(l)
        kind = sol.curve_class.kind
        assert kind == pick
        counts[kind] += 1
        res, side = _hyperbolic_residuals(l, sol)
        worst_res[kind] = max(worst_res[kind], res)
        worst_side[kind] = max(worst_side[kind], side)
    for kind in counts:
        assert worst_res[kind] <= 1e-9, kind
        assert worst_side[kind] <= 1e-9, kind
    announce(
        capsys,
        "ACCEPTANCE 8 PASS: horocycle band + perturbation flips, 1000 solves "
        "per class with hyperboloid residency and side round trip <= 1e-9 "
        f"(worst side rel: circle {worst_side['circle']:.2e}, "
        f"horocycle {worst_side['horocycle']:.2e}, hypercycle {worst_side['hypercycle']:.2e})",
    )


def test_criterion_09_defect_function_roots(capsys):
    rng = np.random.default_rng(89012)
    worst_phi1 = 0.0
    worst_root = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        base = rng.uniform(1.0, 3.0, n - 1)
        dom = 2 * math.asinh(rng.uniform(1.05, 1.8) * math.fsum(np.sinh(base / 2).tolist()))
        if dom >= math.fsum(base.tolist()):
            continue
        l = np.concatenate([base, [dom]])
        chords = 2 * np.sinh(l / 2)
        deficit = 0.5 * (l[-1] - math.fsum(l[:-1].tolist()))
        worst_phi1 = max(worst_phi1, abs(hyperbolic.phi(1.0, chords) - deficit))
        rbar = hyperbolic.solve_hypercycle_radius(chords)
        worst_root = max(worst_root, abs(hyperbolic.phi(rbar, chords)))
        assert hyperbolic.phi_prime(rbar, chords) > 0
    assert worst_phi1 <= 1e-12
    assert worst_root <= 1e-12

    worst_add = 0.0
    worst_side = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        base = rng.uniform(0.5, 2.0, n - 1)
        l = np.concatenate([base, [base.sum() * rng.uniform(1.05, 2.0)]])
        sol = minkowski.solve_minkowski(l)
        a = sol.foot_params.values
        worst_add = max(worst_add, abs(a[-1] - math.fsum(a[:-1].tolist())))
        d = np.roll(sol.vertices, -1, axis=0) - sol.vertices
        rec = np.sqrt(d[:, 0] ** 2 - d[:, 1] ** 2)
        worst_side = max(worst_side, float(np.max(np.abs(rec - l) / l)))
    assert worst_add <= 1e-10
    assert worst_side <= 1e-9
    announce(
        capsys,
        f"ACCEPTANCE 9 PASS: Phi(1) = half length deficit ({worst_phi1:.2e} <= 1e-12), "
        f"|Phi(root)| {worst_root:.2e} <= 1e-12 with Phi' > 0; minkowski additivity "
        f"{worst_add:.2e} <= 1e-10, side recovery {worst_side:.2e} <= 1e-9",
    )


def test_criterion_10_error_contract_fuzz(capsys):
    rng = np.random.default_rng(90123)
    total = 0

    def invalid_lengths(n):
        # one side at least the sum of the others (equality 10% of the time)
        base = rng.uniform(0.1, 2.0, n - 1)
        s = math.fsum(base.tolist())
        dom = s if rng.random() < 0.1 else s * rng.uniform(1.0 + 1e-9, 3.0)
        l = np.concatenate([base, [dom]])
        perm = rng.permutation(n)
        return l[perm], int(np.argmax(perm == n - 1))

    for _ in range(2500):
        n = int(rng.integers(3, 12))
        l, dom = invalid_lengths(n)
        with pytest.raises(NoPolygonError) as exc_info:
            euclidean.solve_euclidean(l)
        assert exc_info.value.index == dom
        total += 1

    for _ in range(2500):
        # keep the perimeter below 2*pi and construct the dominance on the
        # final values (rescaling afterwards could flip an exact equality)
        n = int(rng.integers(3, 12))
        base = rng.uniform(0.1, 2.0, n - 1)
        base *= rng.uniform(0.2, 0.36) * TWO_PI / (4 * base.sum())
        s = math.fsum(base.tolist())
        dom = s if rng.random() < 0.1 else s * rng.uniform(1.0 + 1e-9, 3.0)
        l = np.concatenate([base, [dom]])
        perm = rng.permutation(n)
        l, dom_at = l[perm], int(np.argmax(perm == n - 1))
        assert math.fsum(l.tolist()) < TWO_PI - 1e-6
        with pytest.raises(NoPolygonError) as exc_info:
            spherical.solve_spherical(l)
        assert exc_info.value.index == dom_at
        total += 1

    for _ in range(2500):
        n = int(rng.integers(3, 12))
        l, dom = invalid_lengths(n)
        with pytest.raises(NoPolygonError) as exc_info:
            hyperbolic.solve_hyperbolic(l)
        assert exc_info.value.index == dom
        total += 1

    for _ in range(2500):
        n = int(rng.integers(3, 12))
        l = rng.uniform(0.1, 2.0, n)
        m = int(np.argmax(l))
        if l[m] > math.fsum(np.delete(l, m).tolist()):
            l[m] = math.fsum(np.delete(l, m).tolist())  # force non-dominance
        with pytest.raises(ReverseInequalityError) as exc_info:
            minkowski.solve_minkowski(l)
        assert exc_info.value.index is not None
        total += 1

    # every error is the structured infeasibility type with a message
    for exc, l in (
        (NoPolygonError, [1, 1, 3]),
        (PerimeterError, [3, 3, 3]),
        (ReverseInequalityError, [1, 1, 1]),
    ):
        with pytest.raises(InfeasibleError) as exc_info:
            {
                NoPolygonError: euclidean.solve_euclidean,
                PerimeterError: spherical.solve_spherical,
                ReverseInequalityError: minkowski.solve_minkowski,
            }[exc](l)
        assert isinstance(exc_info.value, exc)
        assert str(exc_info.value)
    assert total == 10_000
    announce(
        capsys,
        "ACCEPTANCE 10 PASS: 10000 invalid vectors produced structured "
        "infeasibility errors naming the offending side (no panics, no NaN)",
    )
