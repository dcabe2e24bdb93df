"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each, with the criterion's wall-clock bound enforced.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import math
import time
import warnings

import numpy as np
from scipy.integrate import quad
from scipy.special import jn_zeros

from nlsball import (
    ComplexField,
    ProblemParams,
    ShootConfig,
    ap_predict,
    defocusing_diagnostics,
    geometric_lambda_grid,
    gn_constant,
    linearized_spectrum,
    make_grid,
    normalize,
    point_at_alpha,
    principal_eigenpair,
    solve_ball_profile,
    solve_psi,
    solve_whole_space,
    stability_probe,
    trace,
)
from nlsball.branch import _solve_normalized
from nlsball.evolve import discrete_standing_wave, evolve
from nlsball.verify import derivative_identities
from scipy.optimize import brentq

P13 = ProblemParams(N=1, p=3.0)
P15 = ProblemParams(N=1, p=5.0)
P33 = ProblemParams(N=3, p=3.0)


def report(num, name, elapsed, bound, detail=""):
    print(f"ACCEPT {num:02d} {name}: PASS in {elapsed:.1f}s (bound {bound:.0f}s) {detail}")
    assert elapsed < bound, f"criterion {num} exceeded its runtime bound"


def test_criterion_01_eigenvalues():
    oracles = {1: math.pi**2 / 4, 2: jn_zeros(0, 1)[0] ** 2, 3: math.pi**2}
    details = []
    times = []
    for N, exact in oracles.items():
        t0 = time.perf_counter()
        params = ProblemParams(N, 1.0 + 2.0 / N)
        grid = make_grid(params, 16385, 1.0)
        eig = principal_eigenpair(params, grid)
        elapsed = time.perf_counter() - t0
        rel = abs(eig.lambda1 / exact - 1.0)
        assert rel < 1e-8, f"N={N}: rel error {rel:.2e}"
        assert elapsed < 1.0, f"N={N} solve took {elapsed:.2f}s"
        details.append(f"N={N}:{rel:.1e}")
        times.append(elapsed)
    report(1, "eigenvalues", max(times), 1.0, " ".join(details))


def test_criterion_02_shooting_oracle():
    t0 = time.perf_counter()
    cfg = ShootConfig(n_nodes=2049)
    prof = solve_ball_profile(P13, 0.0, +1, cfg)
    elapsed = time.perf_counter() - t0
    K = quad(lambda s: 1.0 / math.sqrt(1.0 - s**4), 0.0, 1.0)[0]
    a = math.sqrt(2.0) * K
    assert abs(prof.values[0] - a) < 1e-6
    assert abs(prof.values[0] - 1.85407) < 1e-5
    assert abs(prof.boundary_derivative + a**2 / math.sqrt(2.0)) < 1e-5
    report(2, "shooting oracle", elapsed, 1.0,
           f"u0 err {abs(prof.values[0]-a):.1e}")


def test_criterion_03_whole_space():
    t0 = time.perf_counter()
    cfg = ShootConfig(n_nodes=2049)
    Z13 = solve_whole_space(P13, 20.0, cfg)
    Z15 = solve_whole_space(P15, 20.0, cfg)
    Z33 = solve_whole_space(P33, 20.0, cfg)
    elapsed = time.perf_counter() - t0
    assert abs(Z13.mass - 4.0) < 1e-5
    assert abs(Z13.grad_energy - 4.0 / 3.0) < 1e-5
    assert abs(Z15.mass - math.sqrt(3.0) * math.pi / 2.0) < 1e-5
    assert abs(Z33.grad_energy / Z33.mass - 3.0) < 1e-4
    report(3, "whole-space solitons", elapsed, 5.0,
           f"mass13 err {abs(Z13.mass-4):.1e}")


def test_criterion_04_branch_monotonicity():
    cfg = ShootConfig(n_nodes=2049)
    details = []
    times = []
    for params, tag in ((P13, "p=3"), (P15, "p=5")):
        t0 = time.perf_counter()
        lams = geometric_lambda_grid(params, -2.0, 120.0, 60, sign=+1)
        br = trace(params, lams, +1, cfg)
        elapsed = time.perf_counter() - t0
        assert len(br.points) >= 60 and not br.failures
        assert np.all(np.diff(br.lambdas) > 0.0)
        assert np.all(np.diff(br.mus) > 0.0)
        assert np.all(np.diff(br.alphas) > 0.0)
        assert elapsed < 30.0
        details.append(f"{tag}:{elapsed:.0f}s")
        times.append(elapsed)
    t0 = time.perf_counter()
    lams = geometric_lambda_grid(P13, -2.6, -2000.0, 60, sign=-1)
    brd = trace(P13, lams, -1, cfg)
    elapsed_d = time.perf_counter() - t0
    assert len(brd.points) >= 60 and not brd.failures
    assert np.all(np.diff(brd.mus) < 0.0)
    assert np.all(np.diff(brd.lambdas) < 0.0)
    details.append(f"S-:{elapsed_d:.0f}s")
    report(4, "branch monotonicity", max(times + [elapsed_d]), 30.0,
           " ".join(details))


def test_criterion_05_figure1():
    t0 = time.perf_counter()
    cfg = ShootConfig(n_nodes=2049)
    Z33 = solve_whole_space(P33, 20.0, cfg)
    lams = geometric_lambda_grid(P33, -math.pi**2 + 0.4, 3500.0, 80, sign=+1)
    br = trace(P33, lams, +1, cfg)
    elapsed = time.perf_counter() - t0
    assert not br.failures
    window = (br.alphas > math.pi**2) & (br.alphas <= 1e4)
    mus = br.mus[window]
    signs = np.sign(np.diff(mus))
    assert int(np.sum(signs[:-1] * signs[1:] < 0)) == 1  # single interior max
    last = br.points[int(np.nonzero(window)[0][-1])]
    scaled = last.mu * math.sqrt(last.lam)
    assert abs(scaled / Z33.mass - 1.0) < 0.03
    assert abs(last.alpha / last.lam / 3.0 - 1.0) < 0.03
    report(5, "mu(alpha) reproduction", elapsed, 120.0,
           f"alpha_max={last.alpha:.0f} mu*sqrt(lam) err "
           f"{abs(scaled/Z33.mass-1):.1e}")


def test_criterion_06_critical_limit():
    t0 = time.perf_counter()
    cfg = ShootConfig(n_nodes=2049)
    prof = solve_ball_profile(P15, 1e4, +1, cfg)
    pt = normalize(prof, 1e4, +1, P15)
    elapsed = time.perf_counter() - t0
    target = 3.0 * math.pi**2 / 4.0
    assert abs(pt.mu / target - 1.0) < 0.02
    report(6, "critical multiplier limit", elapsed, 30.0,
           f"mu={pt.mu:.5f} vs {target:.5f}")


def test_criterion_07_identity_suite():
    t0 = time.perf_counter()
    cfg = ShootConfig(n_nodes=2049)
    lams = geometric_lambda_grid(P13, -1.0, 30.0, 121, sign=+1)
    br = trace(P13, lams, +1, cfg)
    rep = derivative_identities(br)
    elapsed = time.perf_counter() - t0
    assert np.max(rep.pohozaev_res) < 1e-5
    assert np.max(rep.orthogonality_res) < 1e-3
    assert np.max(rep.grad_pairing_res) < 1e-3
    assert np.max(rep.nonlinear_pairing_res) < 1e-3
    assert np.max(rep.mu_prime_identity_res) < 1e-3
    assert np.max(rep.M_prime_res) < 1e-2
    report(7, "identity suite", elapsed, 60.0,
           f"pohozaev {np.max(rep.pohozaev_res):.1e} "
           f"pairing {np.max(rep.nonlinear_pairing_res):.1e}")


def test_criterion_08_endpoint_expansion():
    t0 = time.perf_counter()
    grid = make_grid(P13, 16385, 1.0)
    eig = principal_eigenpair(P13, grid)
    ap = solve_psi(P13, eig)
    cfg = ShootConfig(n_nodes=2049)
    errs = {}
    for eps in (1e-3, 2.5e-4):
        for sign in (+1, -1):
            mu_pred, _, _ = ap_predict(ap, eps, sign)
            pt = point_at_alpha(P13, eig.lambda1 + eps, sign, cfg)
            errs[(eps, sign)] = abs(pt.mu - mu_pred) / abs(mu_pred)
    elapsed = time.perf_counter() - t0
    assert errs[(1e-3, +1)] < 0.05 and errs[(1e-3, -1)] < 0.05
    assert errs[(1e-3, +1)] / errs[(2.5e-4, +1)] >= 1.5
    assert errs[(1e-3, -1)] / errs[(2.5e-4, -1)] >= 1.5
    report(8, "endpoint expansion", elapsed, 30.0,
           f"+:{errs[(1e-3,+1)]:.3f} -:{errs[(1e-3,-1)]:.3f} "
           f"ratio:{errs[(1e-3,+1)]/errs[(2.5e-4,+1)]:.2f}")


def test_criterion_09_sharp_constants():
    t0 = time.perf_counter()
    cfg = ShootConfig(n_nodes=2049)
    Z13 = solve_whole_space(P13, 20.0, cfg)
    Z15 = solve_whole_space(P15, 20.0, cfg)
    C13 = gn_constant(Z13).C_Np
    C15 = gn_constant(Z15).C_Np
    assert abs(C13 - 1.0 / math.sqrt(3.0)) < 1e-4
    assert abs(C15 - 4.0 / math.pi**2) < 1e-4
    # branch ratio with the gradient-norm exponent M / alpha^{N(p-1)/4}
    lams = geometric_lambda_grid(P13, -2.0, 30.0, 30, sign=+1)
    br = trace(P13, lams, +1, cfg)
    ratios = br.Ms / br.alphas**0.5
    elapsed = time.perf_counter() - t0
    assert np.all(ratios < C13)
    assert abs(ratios[-1] / C13 - 1.0) < 0.10
    report(9, "sharp constants", elapsed, 30.0,
           f"C13 err {abs(C13-1/math.sqrt(3)):.1e} "
           f"ratio gap {1-ratios[-1]/C13:.1e}")


def test_criterion_10_defocusing_asymptotics():
    t0 = time.perf_counter()
    cfg = ShootConfig(n_nodes=2049)

    def mu_at(lam):
        prof = solve_ball_profile(P13, lam, -1, cfg)
        return normalize(prof, lam, -1, P13).mu

    lam_star = brentq(lambda l: mu_at(l) + 1e4, -6000.0, -4500.0, xtol=1e-6)
    prof = solve_ball_profile(P13, lam_star, -1, cfg)
    pt = normalize(prof, lam_star, -1, P13)
    diag = defocusing_diagnostics(pt)
    elapsed = time.perf_counter() - t0
    # the flat-profile limit on B_1 in R^1: lam/mu -> 1/2, u(0) -> 1/sqrt(2)
    assert abs(pt.mu + 1e4) < 1.0
    assert diag.lambda_over_mu_err < 0.02
    assert diag.alpha_over_lambda < 0.05
    assert diag.plateau_err < 0.02
    report(10, "defocusing asymptotics", elapsed, 30.0,
           f"|lam/mu-1/2|={diag.lambda_over_mu_err:.4f} "
           f"|u0-2^-1/2|={diag.plateau_err:.4f}")


def test_criterion_11_spectrum():
    t0 = time.perf_counter()
    cfg = ShootConfig(n_nodes=2049)
    points = []
    for params, lam_list in ((P13, (-1.0, 2.0, 20.0)),
                             (P15, (0.5, 10.0, 40.0)),
                             (P33, (-5.0, 0.5, 3.0, 15.0))):
        grid = make_grid(params, cfg.n_nodes, 1.0)
        for lam in lam_list:
            pt = _solve_normalized(params, lam, +1, grid)
            points.append(pt)
    assert len(points) >= 10
    gaps = []
    for pt in points:
        sp = linearized_spectrum(pt, l_max=3)
        assert sp.negative_counts[0] == 1
        assert sp.total_negative == 1
        assert sp.min_abs_eigenvalue > 0.0
        gaps.append(sp.min_abs_eigenvalue)
    for lam in (-10.0, -300.0):
        prof = solve_ball_profile(P13, lam, -1, cfg)
        sp = linearized_spectrum(normalize(prof, lam, -1, P13), l_max=3)
        assert sp.total_negative == 0
    elapsed = time.perf_counter() - t0
    report(11, "linearized spectrum", elapsed, 120.0,
           f"{len(points)} pts, min gap {min(gaps):.2e}")


def test_criterion_12_evolution():
    t0 = time.perf_counter()
    cfg = ShootConfig(n_nodes=1025)
    prof = solve_ball_profile(P13, 1.0, +1, cfg)
    pt = normalize(prof, 1.0, +1, P13)
    U = discrete_standing_wave(pt)
    field = ComplexField(U.grid, U.values.astype(complex), 0.0)

    rec = evolve(field, P13, 1e-3, 10.0, sample_every=200, reference=U)
    mdrift = float(np.max(np.abs(rec.mass_history / rec.mass_history[0] - 1.0)))
    edrift = float(np.max(np.abs(rec.energy_history - rec.energy_history[0]))
                   / abs(rec.energy_history[0]))
    assert mdrift < 1e-8
    assert edrift < 1e-5

    rec20 = stability_probe(pt, 0.0, 20.0, 1e-3, sample_every=400)
    assert float(np.max(rec20.orbit_distance_history)) < 1e-4

    rec50 = stability_probe(pt, 1e-3, 50.0, 2e-3, sample_every=400)
    assert float(np.max(rec50.orbit_distance_history)) < 1e-2

    prof33 = solve_ball_profile(P33, 5.0, +1, cfg)
    pt33 = normalize(prof33, 5.0, +1, P33)  # alpha ~ 20 > alpha* ~ 13.2
    rec_u = stability_probe(pt33, 1e-3, 50.0, 2.5e-4, sample_every=40)
    d = rec_u.orbit_distance_history
    growth = float(np.max(d) / d[0])
    elapsed = time.perf_counter() - t0
    if growth < 10.0:
        warnings.warn(f"supercritical probe grew only {growth:.1f}x "
                      "(soft check)", stacklevel=1)
    report(12, "evolution probes", elapsed, 300.0,
           f"mass {mdrift:.1e} energy {edrift:.1e} "
           f"stable {np.max(rec50.orbit_distance_history):.1e} "
           f"growth {growth:.0f}x")
