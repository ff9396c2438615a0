import io

import numpy as np
import pytest

from piac import (LAWS, CommunicationGraph, DomainError, GainSchedule,
                  InsufficientHorizon, Node, NodeKind, OutputSelector,
                  PowerNetwork, Scenario, ScenarioKind, Trace, assemble,
                  build_laplacian, bundled_case_path, compute_metrics,
                  find_equilibrium, h2_dpiac_analytic, load_case,
                  optimal_dispatch, simulate_deterministic,
                  simulate_stochastic, spectral_decompose, write_ensemble_csv,
                  write_trace_csv)
from conftest import make_machine_net, ring_net


def mixed_net():
    """Six nodes: two machines, two frequency-dependent, two passive."""
    nodes = (
        Node(id=1, kind=NodeKind.MACHINE, inertia=1.0, damping=1.0,
             injection=0.5, price=1.0),
        Node(id=2, kind=NodeKind.MACHINE, inertia=1.5, damping=0.8,
             injection=0.4, price=2.0),
        Node(id=3, kind=NodeKind.FREQ_DEPENDENT, damping=0.3,
             injection=-0.5, price=1.5),
        Node(id=4, kind=NodeKind.FREQ_DEPENDENT, damping=0.4,
             injection=-0.4, price=1.0),
        Node(id=5, kind=NodeKind.PASSIVE),
        Node(id=6, kind=NodeKind.PASSIVE),
    )
    edges = ((1, 3, 4.0), (3, 5, 4.0), (5, 2, 4.0), (2, 4, 4.0),
             (4, 6, 4.0), (6, 1, 4.0), (3, 4, 2.0))
    comm = CommunicationGraph(weights=((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)))
    return PowerNetwork(nodes=nodes, edges=edges), comm


def loaded_chain():
    """Machine, two passive buses, machine: a corridor of three lines."""
    nodes = (
        Node(id=1, kind=NodeKind.MACHINE, inertia=1.0, damping=1.0,
             injection=0.8, price=1.0),
        Node(id=2, kind=NodeKind.PASSIVE),
        Node(id=3, kind=NodeKind.PASSIVE),
        Node(id=4, kind=NodeKind.MACHINE, inertia=1.2, damping=0.9,
             injection=-0.8, price=1.0),
    )
    edges = ((1, 2, 1.2), (2, 3, 1.2), (3, 4, 1.2))
    return (PowerNetwork(nodes=nodes, edges=edges),
            CommunicationGraph(weights=((1, 4, 1.0),)))


def quiet_step(t_end=20.0, h=0.01):
    return Scenario(kind=ScenarioKind.STEP, t_end=t_end, h=h, onset=1.0, steps={})


def test_equilibrium_balanced_network():
    net, comm = ring_net(3, k=2.0)
    eq = find_equilibrium(net, "dpiac", GainSchedule.analytic(1.0, 1.0), comm)
    assert np.allclose(eq.theta, 0.0, atol=1e-12)
    assert np.allclose(eq.u, 0.0, atol=1e-12)


def test_equilibrium_mixed_network_consistency():
    net, comm = mixed_net()
    g = GainSchedule.analytic(1.0, 1.0)
    eq = find_equilibrium(net, "dpiac", g, comm)
    u_star = optimal_dispatch(net)
    assert np.allclose(eq.u, u_star, atol=1e-12)
    assert abs(np.mean(eq.theta)) <= 1e-12


def test_zero_disturbance_holds_equilibrium():
    # integrator-state drift below 1e-8 over the horizon; the algebraic
    # frequency of a load bus amplifies flow residuals by 1/D and is checked
    # at its own (looser) level
    net, comm = mixed_net()
    g = GainSchedule.analytic(1.0, 1.0)
    tr = simulate_deterministic(net, comm, "dpiac", g, quiet_step())
    mach = [tr.node_ids.index(i) for i in net.machine_ids]
    assert np.abs(tr.theta - tr.theta[0]).max() <= 1e-8
    assert np.abs(tr.omega[:, mach]).max() <= 1e-8
    assert np.abs(tr.eta - tr.eta[0]).max() <= 1e-8
    assert np.abs(tr.xi - tr.xi[0]).max() <= 1e-8
    assert np.abs(tr.omega_controllers).max() <= 1e-7


def test_step_reaches_optimal_steady_state():
    net, comm = ring_net(3, k=2.0)
    g = GainSchedule.analytic(1.0, 1.0)
    scen = Scenario.step({1: -0.2, 2: -0.1}, onset=2.0, t_end=50.0, h=0.01)
    for law in ("gbpiac", "dpiac", "decpiac"):
        tr = simulate_deterministic(net, comm, law, g, scen)
        u_end = tr.u[-1]
        assert abs(u_end.sum() - 0.3) <= 1e-4
        assert np.abs(tr.omega_controllers[-1]).max() <= 1e-6
        if law != "decpiac":
            mc = tr.mc[-1]
            assert mc.max() - mc.min() <= 1e-3


def machine_only_case(case):
    if case == "homogeneous10":
        net, comm, _, _ = load_case(bundled_case_path(case))
        return net, comm
    return make_machine_net(4, m=[1.0, 2.0, 0.5, 1.5], d=[1.0, 0.3, 2.0, 1.0],
                            alpha=[1.0, 3.0, 0.5, 2.0],
                            edges=[(1, 2, 1.0), (2, 3, 2.0), (3, 4, 0.5),
                                   (1, 4, 1.5)])


@pytest.mark.parametrize("case", ["homogeneous10", "heterogeneous-prices"])
def test_sim_rhs_matches_closed_loop(case):
    # on a machine-only network the packed simulator state is the closed-loop
    # state: the linear model's rhs is A x plus the injection term rhs(0, p)
    from piac.sim import _SimModel

    net, comm = machine_only_case(case)
    g = GainSchedule(k1=0.8, k2=3.2, k3=4.0)
    rng = np.random.default_rng(23)
    for law in LAWS:
        sys = assemble(net, comm, law, g)
        mo = _SimModel(net, comm, law, g, "linear")
        assert mo.dim == sys.dim
        p = rng.normal(size=net.n_nodes)
        x = rng.normal(size=sys.dim)
        want = sys.A @ x + mo.rhs(np.zeros(sys.dim), p)
        scale = np.abs(sys.A).max() * np.abs(x).max() + np.abs(p).max()
        assert np.allclose(mo.rhs(x, p), want, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("law", LAWS)
def test_linear_model_matrices_reproduce_rhs_on_mixed_network(law):
    # every rhs call solves the passive balance, so the matrices read off
    # the linear model are its Kron-reduced linearization, exact up to
    # round-off because the model is affine
    from piac.sim import _SimModel

    net, comm, gains, _ = load_case(bundled_case_path("ieee39-like"))
    mo = _SimModel(net, comm, law, gains, "linear")
    A, B = mo.matrices(np.eye(net.n_nodes))
    assert A.shape == (mo.dim, mo.dim) and B.shape == (mo.dim, net.n_nodes)
    rng = np.random.default_rng(31)
    for _ in range(3):
        x, p = rng.normal(size=mo.dim), rng.normal(size=net.n_nodes)
        scale = np.abs(A).max() * np.abs(x).max() + np.abs(B).max() * np.abs(p).max()
        assert np.allclose(mo.rhs(x, p), A @ x + B @ p, rtol=0, atol=1e-14 * scale)


def test_heavily_loaded_passive_chain():
    # passive buses hanging in a chain between source and sink, loaded to
    # sizable angles: exercises the damped Newton inside every rhs call
    net, comm = loaded_chain()
    g = GainSchedule.analytic(1.0, 1.0)
    eq = find_equilibrium(net, "dpiac", g, comm)
    # the corridor carries 0.8 over lines of strength 1.2: sin(gap) = 2/3
    gaps = np.diff(eq.theta)
    assert np.allclose(np.sin(np.abs(gaps)), 0.8 / 1.2, atol=1e-9)
    scen = Scenario.step({4: -0.1}, onset=1.0, t_end=40.0, h=0.01)
    tr = simulate_deterministic(net, comm, "dpiac", g, scen)
    assert abs(tr.u[-1].sum() - 0.1) <= 1e-4
    assert np.abs(tr.omega_controllers[-1]).max() <= 1e-6


def test_infeasible_power_flow_raises():
    # a 1.5 p.u. transfer over a line that saturates at K = 1 has no
    # equilibrium; the Newton solve must fail loudly, not wander
    from piac import DAESolveError

    nodes = (
        Node(id=1, kind=NodeKind.MACHINE, inertia=1.0, damping=1.0,
             injection=1.5, price=1.0),
        Node(id=2, kind=NodeKind.MACHINE, inertia=1.0, damping=1.0,
             injection=-1.5, price=1.0),
    )
    net = PowerNetwork(nodes=nodes, edges=((1, 2, 1.0),))
    with pytest.raises(DAESolveError):
        find_equilibrium(net, "decpiac", GainSchedule.analytic(1.0))


def test_step_scenario_required():
    net, comm = ring_net(3)
    noise = Scenario.white_noise({1: 0.01}, seed=1, t_end=1.0, paths=1, burn_in=0.1)
    with pytest.raises(DomainError):
        simulate_deterministic(net, comm, "dpiac", GainSchedule.analytic(1.0), noise)
    with pytest.raises(DomainError):
        simulate_stochastic(net, comm, "dpiac", GainSchedule.analytic(1.0),
                            quiet_step())


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(kind=ScenarioKind.STEP, t_end=10.0, h=-0.1, onset=1.0)
    with pytest.raises(ValueError):
        Scenario(kind=ScenarioKind.STEP, t_end=10.0, h=0.1, onset=20.0)
    with pytest.raises(ValueError):
        Scenario(kind=ScenarioKind.NOISE, t_end=10.0, h=0.1, sigma={1: -0.1})
    net, comm = ring_net(3)
    bad = Scenario.step({99: -0.1}, onset=1.0, t_end=10.0)
    with pytest.raises(DomainError):
        simulate_deterministic(net, comm, "dpiac", GainSchedule.analytic(1.0), bad)


def test_linear_matches_nonlinear_for_small_angles():
    net, comm = ring_net(4, k=5.0)   # stiff lines keep angle gaps tiny
    g = GainSchedule.analytic(1.0, 1.0)
    scen = Scenario.step({1: -0.05}, onset=1.0, t_end=20.0, h=0.01)
    tr_sin = simulate_deterministic(net, comm, "dpiac", g, scen, model="sin")
    tr_lin = simulate_deterministic(net, comm, "dpiac", g, scen, model="linear")
    gaps = []
    for i, j, _ in net.edges:
        a = tr_sin.theta[:, net.index_of[i]] - tr_sin.theta[:, net.index_of[j]]
        gaps.append(np.abs(a).max())
    assert max(gaps) < 0.05
    diff = np.abs(tr_sin.omega_controllers - tr_lin.omega_controllers).max()
    assert diff <= 1e-3


def test_step_size_convergence():
    net, comm = ring_net(3, k=2.0)
    g = GainSchedule.analytic(0.8, 1.0)
    vals = []
    for h in (0.02, 0.01):
        scen = Scenario.step({2: -0.2}, onset=2.0, t_end=45.0, h=h)
        tr = simulate_deterministic(net, comm, "dpiac", g, scen)
        met = compute_metrics(tr, net.prices, t0=40.0)
        vals.append((met.S, met.C))
    (s1, c1), (s2, c2) = vals
    assert abs(s1 - s2) <= 1e-3 * abs(s2)
    assert abs(c1 - c2) <= 1e-3 * abs(c2)


def test_record_stride_must_be_positive():
    net, comm = ring_net(3)
    for stride in (0, -1):
        with pytest.raises(DomainError):
            simulate_deterministic(net, comm, "dpiac", GainSchedule.analytic(1.0),
                                   quiet_step(t_end=2.0), stride=stride)


@pytest.mark.parametrize("case", ["homogeneous10", "heterogeneous-prices"])
def test_jacobian_matches_closed_loop(case):
    # on a machine-only network the linear model's Jacobian is A itself; the
    # forward differences leave round-off of eps / step relative to the scale
    from piac.sim import _SimModel

    net, comm = machine_only_case(case)
    g = GainSchedule(k1=0.8, k2=3.2, k3=4.0)
    rng = np.random.default_rng(29)
    for law in LAWS:
        sys = assemble(net, comm, law, g)
        mo = _SimModel(net, comm, law, g, "linear")
        x = rng.normal(size=sys.dim)
        p = rng.normal(size=net.n_nodes)
        J = mo.jacobian(x, p)
        assert J.shape == sys.A.shape
        scale = np.abs(sys.A).max()
        assert np.allclose(J, sys.A, rtol=0, atol=1e-6 * scale), law


def ieee39_step_run():
    net, comm, gains, scen = load_case(bundled_case_path("ieee39-like"))
    return net, scen, simulate_deterministic(net, comm, "dpiac", gains, scen)


def test_ieee39_load_buses_quiet_before_onset():
    # a load-bus frequency is read as (p + u - f) / D with D = 0.2, so it
    # shows the integrator's phase error amplified; before the step the
    # network sits at its equilibrium and that error must stay small
    net, scen, tr = ieee39_step_run()
    pre = tr.t < scen.onset - 1e-12
    freq = [tr.node_ids.index(i) for i in net.freq_ids]
    assert freq and pre.sum() > 100
    assert np.abs(tr.omega[np.ix_(pre, freq)]).max() <= 1e-7


def test_ieee39_step_rhs_budget(monkeypatch):
    # the step study is stiff: an explicit scheme needs ~30k evaluations,
    # the stiff integrator with its batched Jacobian stays well below 5000
    import piac.sim

    calls = []
    real = piac.sim.solve_ivp

    def counting(*args, **kwargs):
        sol = real(*args, **kwargs)
        calls.append(sol.nfev)
        return sol

    monkeypatch.setattr(piac.sim, "solve_ivp", counting)
    ieee39_step_run()
    assert len(calls) == 2              # before and after the onset
    assert sum(calls) <= 5000


# S and C of the bundled step scenarios over [0, 40] s, from RK45 at
# rtol 1e-8, atol 1e-10
STEP_STUDY_VALUES = {
    ("homogeneous10", "gbpiac"): (0.005290376724698222, 0.14976562500145874),
    ("homogeneous10", "dpiac"): (0.00517295599109121, 0.14978244631642665),
    ("homogeneous10", "decpiac"): (0.00470251023436068, 0.15519788816167693),
    ("ieee39-like", "gbpiac"): (0.020389993214791728, 0.07532013160131501),
    ("ieee39-like", "dpiac"): (0.01989718092186588, 0.07612125715429977),
    ("ieee39-like", "decpiac"): (0.019999553340784102, 0.09818904461989687),
}


@pytest.mark.parametrize("case, law", sorted(STEP_STUDY_VALUES))
def test_bundled_step_study_numbers(case, law):
    net, comm, gains, scen = load_case(bundled_case_path(case))
    tr = simulate_deterministic(net, comm, law, gains, scen)
    met = compute_metrics(tr, net.prices, t0=40.0)
    S, C = STEP_STUDY_VALUES[case, law]
    assert met.S == pytest.approx(S, rel=1e-6, abs=0)
    assert met.C == pytest.approx(C, rel=1e-6, abs=0)


def synthetic_trace(t, omega_val=0.0, u_val=0.0, n=1):
    T = len(t)
    ids = tuple(range(1, n + 1))
    return Trace(t=np.asarray(t, dtype=float), node_ids=ids,
                 theta=np.zeros((T, n)), omega=np.full((T, n), omega_val),
                 controller_ids=ids, eta=np.zeros((T, n)),
                 xi=np.zeros((T, n)), u=np.full((T, n), u_val),
                 mc=np.full((T, n), u_val), law="dpiac")


def test_metrics_zero_frequency():
    tr = synthetic_trace(np.linspace(0, 50, 501))
    met = compute_metrics(tr, np.ones(1))
    assert met.S == 0.0 and met.C == 0.0
    assert met.t0 == 40.0


def test_metrics_constant_input():
    # C = (1/2) * c^2 * T0 = 20 c^2 for alpha = 1, n = 1, T0 = 40
    c = 0.3
    tr = synthetic_trace(np.linspace(0, 45, 4501), u_val=c)
    met = compute_metrics(tr, np.ones(1))
    assert met.C == pytest.approx(20.0 * c * c, rel=1e-12)


def test_metrics_horizon_check():
    tr = synthetic_trace(np.linspace(0, 30, 301))
    with pytest.raises(InsufficientHorizon):
        compute_metrics(tr, np.ones(1), t0=40.0)


def test_stochastic_zero_noise_collapses():
    net, comm = ring_net(3, k=2.0)
    g = GainSchedule.analytic(1.0, 1.0)
    scen = Scenario.white_noise({1: 0.0}, seed=5, t_end=5.0, h=1e-3,
                                paths=2, burn_in=1.0)
    traces, met = simulate_stochastic(net, comm, "dpiac", g, scen, model="linear")
    assert met.E_S <= 1e-20
    assert np.abs(traces[0].omega).max() <= 1e-10


def test_stochastic_matches_h2_variance():
    net, comm = ring_net(5, k=1.0)
    g = GainSchedule.analytic(1.0, 1.0)
    spec = spectral_decompose(build_laplacian(net))
    sigma = 0.02
    scen = Scenario.white_noise({i: sigma for i in range(1, 6)}, seed=321,
                                t_end=170.0, h=1e-3, paths=20, burn_in=30.0)
    traces, met = simulate_stochastic(net, comm, "dpiac", g, scen, model="linear")
    pred = sigma ** 2 * h2_dpiac_analytic(spec, 1.0, 1.0, 1.0, 1.0,
                                          OutputSelector.FREQUENCY_DEVIATION).value
    assert abs(met.E_S - pred) <= 3.0 * met.E_S_se


def test_stochastic_cost_rises_with_k1():
    # expected control cost tracks sigma^2 * (input norm) / 2, which grows
    # about linearly in k1; the ordering must survive sampling noise
    net, comm = ring_net(4, k=1.5)
    spec = spectral_decompose(build_laplacian(net))
    sigma = 0.01
    measured, predicted = [], []
    for k1 in (0.4, 0.8, 1.6):
        g = GainSchedule.analytic(k1, 1.0)
        scen = Scenario.white_noise({i: sigma for i in range(1, 5)}, seed=77,
                                    t_end=80.0, h=1e-3, paths=6, burn_in=20.0)
        _, met = simulate_stochastic(net, comm, "dpiac", g, scen, model="linear")
        pred = 0.5 * sigma ** 2 * h2_dpiac_analytic(
            spec, 1.0, 1.0, k1, 1.0, OutputSelector.CONTROL_INPUT).value
        assert abs(met.E_C - pred) <= 4.0 * met.E_C_se
        measured.append(met.E_C)
        predicted.append(pred)
    assert measured[0] < measured[1] < measured[2]
    # near-linear growth: doubling k1 roughly doubles the predicted cost
    assert 1.5 <= predicted[1] / predicted[0] <= 2.5
    assert 1.5 <= predicted[2] / predicted[1] <= 2.5


def test_stochastic_seed_reproducible():
    net, comm = ring_net(3, k=2.0)
    g = GainSchedule.analytic(1.0, 1.0)
    scen = Scenario.white_noise({1: 0.01}, seed=99, t_end=2.0, h=1e-3,
                                paths=3, burn_in=0.5)
    a, _ = simulate_stochastic(net, comm, "dpiac", g, scen, model="linear")
    b, _ = simulate_stochastic(net, comm, "dpiac", g, scen, model="linear")
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.omega, tb.omega)
    # first paths agree when the ensemble grows: streams are spawned per path
    scen_more = Scenario.white_noise({1: 0.01}, seed=99, t_end=2.0, h=1e-3,
                                     paths=5, burn_in=0.5)
    c, _ = simulate_stochastic(net, comm, "dpiac", g, scen_more, model="linear")
    assert np.array_equal(a[0].omega, c[0].omega)


def test_stochastic_blowup_detected():
    # a one-second Euler-Maruyama step on a stiff ring is unstable; the
    # divergence must surface as an error, not NaNs in the trace
    from piac import NumericalBlowup

    net, comm = ring_net(3, k=5.0)
    g = GainSchedule.analytic(1.0, 1.0)
    scen = Scenario(kind=ScenarioKind.NOISE, t_end=400.0, h=1.0,
                    sigma={1: 0.01}, paths=1, burn_in=10.0, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowup):
            simulate_stochastic(net, comm, "dpiac", g, scen, model="linear")


def test_stochastic_requires_seed():
    net, comm = ring_net(3)
    scen = Scenario(kind=ScenarioKind.NOISE, t_end=1.0, h=1e-3, sigma={1: 0.01},
                    paths=1, burn_in=0.1)
    with pytest.raises(DomainError):
        simulate_stochastic(net, comm, "dpiac", GainSchedule.analytic(1.0), scen)


def test_stochastic_nonlinear_mixed_network():
    net, comm = mixed_net()
    g = GainSchedule.analytic(1.0, 1.0)
    scen = Scenario.white_noise({5: 0.002, 3: 0.002}, seed=7, t_end=4.0,
                                h=1e-3, paths=2, burn_in=1.0)
    traces, met = simulate_stochastic(net, comm, "dpiac", g, scen)
    assert met.E_S >= 0.0 and np.isfinite(met.E_S)
    for tr in traces:
        assert np.all(np.isfinite(tr.theta))
        passive_cols = [tr.node_ids.index(i) for i in net.passive_ids]
        assert np.all(np.isnan(tr.omega[:, passive_cols]))


@pytest.mark.parametrize("law", LAWS)
def test_stepper_paths_agree_on_linear_model(law, monkeypatch):
    # the linear model's matrices and its rhs drive the same Euler-Maruyama
    # loop from the same spawned streams; they must coincide up to
    # floating-point accumulation, on a machine ring and on a mixed network
    # with noise at passive and frequency-dependent buses
    from piac.sim import _SimModel, _euler_maruyama, _noise_matrix, _traces

    ring, ring_comm = ring_net(3, k=3.0)
    mixed, mixed_comm = mixed_net()
    g = GainSchedule.analytic(1.0, 1.0)
    rhs, calls = _SimModel.rhs, []

    def counting_rhs(self, x, p_eff):
        calls.append(x.shape)
        return rhs(self, x, p_eff)

    for net, comm, sigma in ((ring, ring_comm, {1: 0.005, 2: 0.002}),
                             (mixed, mixed_comm, {5: 0.005, 3: 0.002, 1: 0.002})):
        scen = Scenario.white_noise(sigma, seed=13, t_end=5.0, h=1e-3, paths=2,
                                    burn_in=1.0)
        calls.clear()
        monkeypatch.setattr(_SimModel, "rhs", counting_rhs)
        fast, _ = simulate_stochastic(net, comm, law, g, scen, model="linear")
        monkeypatch.undo()
        # the matrices are read once, not evaluated per step
        assert len(calls) <= 3
        model_obj = _SimModel(net, comm, law, g, "linear")
        eq = find_equilibrium(net, law, g, comm, "linear")
        p = net.injections
        t, X, W = _euler_maruyama(lambda X, W: model_obj.rhs(X, p + W),
                                  model_obj.at_rest(eq), _noise_matrix(net, scen),
                                  scen, paths=2, record_stride=100)
        slow = _traces(model_obj, t, X, p + W)
        for k in range(2):
            assert np.allclose(slow[k].omega, fast[k].omega, rtol=1e-8, atol=1e-12,
                               equal_nan=True)
            assert np.allclose(slow[k].u, fast[k].u, rtol=1e-8, atol=1e-12)


def test_sin_ensemble_path_independent_of_ensemble_size():
    # the batched passive Newton freezes and damps each path on its own, so
    # a path does not see how many others step beside it
    net, comm = mixed_net()
    g = GainSchedule.analytic(1.0, 1.0)
    runs = []
    for paths in (2, 3):
        scen = Scenario.white_noise({1: 0.01, 5: 0.01, 3: 0.005}, seed=11,
                                    t_end=1.0, h=1e-3, paths=paths, burn_in=0.5)
        runs.append(simulate_stochastic(net, comm, "dpiac", g, scen)[0][0])
    a, b = runs
    for field in ("theta", "omega", "eta", "xi", "u", "mc"):
        assert np.allclose(getattr(a, field), getattr(b, field), rtol=0,
                           atol=1e-12, equal_nan=True), field


def test_batched_passive_newton_matches_unbatched():
    from piac.sim import _SimModel

    net, comm = loaded_chain()
    g = GainSchedule.analytic(1.0, 1.0)
    model = lambda: _SimModel(net, comm, "dpiac", g, "sin")
    mo = model()
    theta_mf = np.array([[1.0, -2.0],      # 3 rad across the corridor
                         [0.0, 0.0]])      # balanced at the cold start
    p_pas = np.zeros((2, 2))
    # precondition: from the cold start the full Newton step on the loaded
    # element raises its mismatch, so that element has to backtrack
    theta0 = np.array([1.0, 0.0, 0.0, -2.0])
    g0 = -mo.flows(theta0)[mo.pas]
    H0 = mo.E_p.T @ (mo.stiffness(theta0 @ mo.E.T)[:, None] * mo.E_p)
    full = theta0.copy()
    full[mo.pas] += np.linalg.solve(H0, g0)
    assert np.abs(mo.flows(full)[mo.pas]).max() > np.abs(g0).max()

    batched = mo.solve_passive(theta_mf, p_pas)
    theta = np.insert(theta_mf, [1, 1], batched, axis=1)
    assert np.abs(mo.flows(theta)[:, mo.pas]).max() <= 1e-12
    assert np.array_equal(batched[1], [0.0, 0.0])
    for k in range(2):
        alone = model().solve_passive(theta_mf[k], p_pas[k])
        assert np.allclose(batched[k], alone, rtol=0, atol=1e-14)


def node_flows(net, theta):
    """Net sine flow out of each node, edge by edge."""
    idx = net.index_of
    f = np.zeros_like(theta)
    for i, j, k in net.edges:
        s = k * np.sin(theta[..., idx[i]] - theta[..., idx[j]])
        f[..., idx[i]] += s
        f[..., idx[j]] -= s
    return f


def test_traces_rebuild_algebraic_states():
    # every recorded row, rebuilt in batched blocks (the step trace spans
    # several), balances the passive buses and pins each load-bus frequency
    # to its power balance
    net, comm = mixed_net()
    g = GainSchedule.analytic(1.0, 1.0)
    step = Scenario.step({3: -0.1, 2: 0.05}, onset=0.5, t_end=3.0, h=0.01)
    noise = Scenario.white_noise({1: 0.01, 2: 0.01}, seed=5, t_end=1.0,
                                 h=1e-3, paths=2, burn_in=0.5)
    tr_step = simulate_deterministic(net, comm, "dpiac", g, step)
    tr_noise, _ = simulate_stochastic(net, comm, "dpiac", g, noise)
    idx = net.index_of
    pas = [idx[i] for i in net.passive_ids]
    freq = [idx[i] for i in net.freq_ids]
    ctrl = [net.controller_ids.index(i) for i in net.freq_ids]
    D = np.array([net.node(i).damping for i in net.freq_ids])
    for tr, stepped in [(tr_step, tr_step.t >= 0.5)] + [(tr, None) for tr in tr_noise]:
        p = np.tile(net.injections, (len(tr.t), 1))
        if stepped is not None:
            for nid, dp in step.steps.items():
                p[stepped, idx[nid]] += dp
        f = node_flows(net, tr.theta)
        scale = max(1.0, float(np.abs(p).max()))
        assert np.abs(p[:, pas] - f[:, pas]).max() <= 1e-10 * scale
        want = (p[:, freq] + tr.u[:, ctrl] - f[:, freq]) / D
        assert np.allclose(tr.omega[:, freq], want, rtol=0, atol=1e-12)


def test_trace_csv_export():
    net, comm = ring_net(3, k=2.0)
    g = GainSchedule.analytic(1.0, 1.0)
    scen = Scenario.step({1: -0.1}, onset=1.0, t_end=5.0, h=0.5)
    tr = simulate_deterministic(net, comm, "dpiac", g, scen)
    buf = io.StringIO()
    write_trace_csv(buf, tr)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,node,theta,omega,eta,xi,u,mc"
    assert len(lines) == 1 + len(tr.t) * net.n_nodes
    buf2 = io.StringIO()
    write_ensemble_csv(buf2, [tr, tr])
    lines2 = buf2.getvalue().splitlines()
    assert lines2[0] == "path,t,node,theta,omega,eta,xi,u,mc"
    assert len(lines2) == 1 + 2 * len(tr.t) * net.n_nodes
    assert lines2[1].startswith("0,")
    assert lines2[1 + len(tr.t) * net.n_nodes].startswith("1,")


def test_csv_passive_fields_empty():
    net, comm = mixed_net()
    g = GainSchedule.analytic(1.0, 1.0)
    tr = simulate_deterministic(net, comm, "gbpiac", g, quiet_step(t_end=2.0, h=0.5))
    buf = io.StringIO()
    write_trace_csv(buf, tr)
    rows = [r.split(",") for r in buf.getvalue().splitlines()[1:]]
    by_node = {int(r[1]): r for r in rows[:net.n_nodes]}
    assert by_node[5][3] == ""      # passive omega empty
    assert by_node[5][6] == ""      # passive u empty
    assert by_node[1][6] != ""      # machine u present
