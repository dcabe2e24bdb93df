"""Shared fixtures: moderate-size branches and ground states reused across
module tests.  The acceptance suite builds its own full-size objects so
its timings are self-contained."""

from types import SimpleNamespace

import pytest

from nlsball import (
    ProblemParams,
    ShootConfig,
    core,
    geometric_lambda_grid,
    shoot,
    solve_whole_space,
    trace,
)

P13 = ProblemParams(N=1, p=3.0)
P15 = ProblemParams(N=1, p=5.0)
P33 = ProblemParams(N=3, p=3.0)


@pytest.fixture(scope="session")
def cfg_fast():
    return ShootConfig(n_nodes=1025)


@pytest.fixture(scope="session")
def cfg_fine():
    return ShootConfig(n_nodes=2049)


@pytest.fixture(scope="session")
def branch_13(cfg_fast):
    lams = geometric_lambda_grid(P13, -2.0, 60.0, 40, sign=+1)
    return trace(P13, lams, +1, cfg_fast)


@pytest.fixture(scope="session")
def branch_15(cfg_fast):
    lams = geometric_lambda_grid(P15, -2.0, 60.0, 40, sign=+1)
    return trace(P15, lams, +1, cfg_fast)


@pytest.fixture(scope="session")
def branch_33(cfg_fast):
    lams = geometric_lambda_grid(P33, -5.0, 120.0, 45, sign=+1)
    return trace(P33, lams, +1, cfg_fast)


@pytest.fixture(scope="session")
def branch_defoc(cfg_fast):
    lams = geometric_lambda_grid(P13, -2.6, -800.0, 40, sign=-1)
    return trace(P13, lams, -1, cfg_fast)


@pytest.fixture(scope="session")
def ground_state_13(cfg_fine):
    return solve_whole_space(P13, 20.0, cfg_fine)


@pytest.fixture(scope="session")
def ground_state_15(cfg_fine):
    return solve_whole_space(P15, 20.0, cfg_fine)


@pytest.fixture(scope="session")
def ground_state_33(cfg_fine):
    return solve_whole_space(P33, 20.0, cfg_fine)


@pytest.fixture
def shooting_work(monkeypatch):
    """Counts the shooting work done while a test runs: `integrations`
    (calls of `shoot._integrate`), `steps` (RK4 steps, r_stop / h per
    call), `event_free` (calls with terminal_events=False) and
    `step_counts` (each call's RK4 step count over [0, 1],
    n_cells * substeps, which tells a grid-step integration from one at
    a coarser step)."""
    work = SimpleNamespace(integrations=0, steps=0, event_free=0,
                           step_counts=[])
    integrate = shoot._integrate

    def counted(a, lam, n_dim, p, n_cells, substeps, record,
                terminal_events=True):
        out = integrate(a, lam, n_dim, p, n_cells, substeps, record,
                        terminal_events)
        work.integrations += 1
        work.steps += round(out[1] * n_cells * substeps)
        work.event_free += not terminal_events
        work.step_counts.append(n_cells * substeps)
        return out

    monkeypatch.setattr(shoot, "_integrate", counted)
    return work


@pytest.fixture
def operator_work(monkeypatch):
    """Counts the operator work done while a test runs: `solves` (calls of
    `RadialOperator.solve`) and `applies` (calls of
    `RadialOperator.apply`)."""
    work = SimpleNamespace(solves=0, applies=0)
    solve = core.RadialOperator.solve
    apply = core.RadialOperator.apply

    def counted_solve(self, shift, rhs):
        work.solves += 1
        return solve(self, shift, rhs)

    def counted_apply(self, y):
        work.applies += 1
        return apply(self, y)

    monkeypatch.setattr(core.RadialOperator, "solve", counted_solve)
    monkeypatch.setattr(core.RadialOperator, "apply", counted_apply)
    return work
