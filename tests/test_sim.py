import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from piac import (LAWS, CommunicationGraph, DomainError, GainSchedule,
                  InsufficientHorizon, Node, NodeKind, OutputSelector,
                  PowerNetwork, Scenario, ScenarioKind, ShapeError, Trace,
                  assemble, build_laplacian, bundled_case_path,
                  compute_metrics, find_equilibrium, h2_dpiac_analytic,
                  load_case, optimal_dispatch, simulate_deterministic,
                  simulate_stochastic, spectral_decompose, write_ensemble_csv,
                  write_trace_csv)
from piac.scenario import DEFAULTS
from conftest import machine_only_case, make_machine_net, ring_net


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


@pytest.mark.parametrize("case, law", [(case, law) for case in
                                       ("ieee39-like", "heterogeneous-prices")
                                       for law in LAWS])
def test_rhs_matches_written_out_equations(case, law):
    # an oracle for the precomputed map: the swing equations, the load-bus
    # balance and the law's maps, written out node by node at random states
    # and injections; the passive phases are the model's, checked to balance
    from piac.closedloop import _SimModel
    from piac.controllers import ControlLaw

    if case == "ieee39-like":
        net, comm, gains, _ = load_case(bundled_case_path(case))
    else:
        net, comm = machine_only_case(case)
        gains = GainSchedule(k1=0.8, k2=3.2, k3=4.0)
    mo = _SimModel(net, comm, law, gains, "sin")
    ctrl = ControlLaw.build(net, comm, law, gains)
    idx = net.index_of
    kind = {i: net.node(i).kind for i in net.ids}
    mf = [idx[i] for i in net.ids if kind[i] is not NodeKind.PASSIVE]
    mach = [idx[i] for i in net.ids if kind[i] is NodeKind.MACHINE]
    freq = [idx[i] for i in net.ids if kind[i] is NodeKind.FREQ_DEPENDENT]
    pas = [idx[i] for i in net.ids if kind[i] is NodeKind.PASSIVE]
    assert [idx[i] for i in net.controller_ids] == mf
    M = np.array([net.nodes[i].inertia for i in mach])
    D = np.zeros(net.n_nodes)
    D[mf] = [net.nodes[i].damping for i in mf]
    k = ctrl.pairs
    rng = np.random.default_rng(41)
    for rows in ((), (3,)):
        x = rng.normal(size=rows + (mo.dim,))
        x[..., :len(mf)] *= 0.1                  # phases the lines can carry
        p = net.injections + 0.1 * rng.normal(size=rows + (net.n_nodes,))
        theta = np.empty(rows + (net.n_nodes,))
        theta[..., mf] = x[..., :len(mf)]
        theta[..., pas] = mo.solve_passive(x[..., :len(mf)], p[..., pas])
        f = node_flows(net, theta)
        assert np.abs(f[..., pas] - p[..., pas]).max(initial=0.0) <= 1e-11
        omega_m = x[..., len(mf):len(mf) + len(mach)]
        eta, xi = x[..., len(mf) + len(mach):-k], x[..., -k:]
        u = np.zeros(rows + (net.n_nodes,))
        u[..., mf] = ctrl.u(xi)
        omega = np.zeros(rows + (net.n_nodes,))
        omega[..., mach] = omega_m
        omega[..., freq] = (p[..., freq] + u[..., freq] - f[..., freq]) / D[freq]
        d_omega = (p[..., mach] + u[..., mach] - D[mach] * omega_m
                   - f[..., mach]) / M
        want = np.concatenate([omega[..., mf], d_omega,
                               ctrl.d_eta(omega[..., mf], xi),
                               ctrl.d_xi(omega[..., mf], eta, xi)], axis=-1)
        got = mo.rhs(x, p)
        scale = (np.abs(want).max()
                 + np.abs(x).max() * max(1.0, gains.k1, gains.k2, gains.k3)
                 + (np.abs(p).max() + np.abs(f).max()) / min(D[mf].min(), M.min()))
        assert np.abs(got - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("case, solves", [("ieee39-like", [("solve", 1)]),
                                          ("homogeneous10", [])])
def test_one_passive_solve_per_evaluation(case, solves, monkeypatch):
    # the hot path: an rhs call makes one passive solve and one flow
    # evaluation after it; the derivative makes the same passive solve, of
    # the one state, and no flow evaluation. Events carry their batch rows
    import piac.closedloop
    from piac.closedloop import _SimModel

    net, comm, gains, _ = load_case(bundled_case_path(case))
    mo = _SimModel(net, comm, "dpiac", gains, "sin")
    x = mo.at_rest(find_equilibrium(net, "dpiac", gains, comm))
    p = net.injections
    newton, line_flows = piac.closedloop._damped_newton, _SimModel.line_flows
    events, depth = [], [0]

    def counting_newton(residual, jacobian, z0, *args):
        events.append(("solve", len(np.atleast_2d(z0))))
        depth[0] += 1
        try:
            return newton(residual, jacobian, z0, *args)
        finally:
            depth[0] -= 1

    def counting_flows(self, gap):
        if not depth[0]:
            events.append(("flows", len(np.atleast_2d(gap))))
        return line_flows(self, gap)

    monkeypatch.setattr(piac.closedloop, "_damped_newton", counting_newton)
    monkeypatch.setattr(_SimModel, "line_flows", counting_flows)
    for evaluate, after in ((mo.rhs, [("flows", 1)]), (mo.linearize, [])):
        events.clear()
        evaluate(x, p)
        assert events == solves + after, evaluate.__name__


@pytest.mark.parametrize("law", LAWS)
def test_linearize_matches_central_differences(law):
    # the exact derivative in the state and the injections, through the
    # passive balance, against central differences of the sine model's rhs
    # 0.02 off the equilibrium; steps of 1e-4 leave about 2e-9 of the scale
    from piac.closedloop import _SimModel

    net, comm, gains, _ = load_case(bundled_case_path("ieee39-like"))
    mo = _SimModel(net, comm, law, gains, "sin")
    rng = np.random.default_rng(3)
    x = (mo.at_rest(find_equilibrium(net, law, gains, comm))
         + 0.02 * rng.uniform(-1, 1, mo.dim))
    p = net.injections + 0.02 * rng.uniform(-1, 1, net.n_nodes)
    A, B = mo.linearize(x, p)
    h = 1e-4
    dx, dp = h * np.eye(mo.dim), h * np.eye(net.n_nodes)
    fd_A = (mo.rhs(x + dx, p) - mo.rhs(x - dx, p)).T / (2 * h)
    fd_B = (mo.rhs(x, p + dp) - mo.rhs(x, p - dp)).T / (2 * h)
    assert np.abs(A - fd_A).max() <= 1e-7 * np.abs(A).max()
    assert np.abs(B - fd_B).max() <= 1e-7 * np.abs(B).max()


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
    with pytest.raises(DAESolveError) as err:
        find_equilibrium(net, "decpiac", GainSchedule.analytic(1.0))
    # in the zero-mean phase coordinate the target is 1.5 sqrt(2) and the
    # flow at most sqrt(2): no step gets the mismatch below sqrt(2) / 2
    found = re.fullmatch(r"power-flow Newton stalled: 1 of 1 element\(s\) "
                         r"unconverged, largest mismatch (\S+) against "
                         r"tolerance 1\.500e-12", str(err.value))
    assert found, str(err.value)
    assert float(found.group(1)) >= 0.5 * math.sqrt(2.0) * (1 - 1e-3)


def test_step_scenario_required():
    net, comm = ring_net(3)
    noise = Scenario.white_noise({1: 0.01}, seed=1, t_end=1.0, paths=1, burn_in=0.1)
    with pytest.raises(DomainError):
        simulate_deterministic(net, comm, "dpiac", GainSchedule.analytic(1.0), noise)
    with pytest.raises(DomainError):
        simulate_stochastic(net, comm, "dpiac", GainSchedule.analytic(1.0),
                            quiet_step())


@pytest.mark.parametrize("fields, message", [
    (dict(kind=ScenarioKind.STEP, t_end=math.inf, h=0.1), "t_end must be finite"),
    (dict(kind=ScenarioKind.STEP, t_end=10.0, h=math.nan), "h must be finite"),
    (dict(kind=ScenarioKind.STEP, t_end=10.0, h=0.1, onset=math.nan),
     "onset must be finite"),
    # the step that made the integrator search for a step size forever
    (dict(kind=ScenarioKind.STEP, t_end=2.0, h=0.01, onset=0.5, steps={3: math.inf}),
     "steps at node 3 must be finite"),
    (dict(kind=ScenarioKind.NOISE, t_end=10.0, h=0.1, sigma={1: math.nan}),
     "sigma at node 1 must be finite"),
    (dict(kind=ScenarioKind.NOISE, t_end=10.0, h=0.1, burn_in=math.inf),
     "burn_in must be finite"),
], ids=["t_end", "h", "onset", "step", "sigma", "burn_in"])
def test_scenario_refuses_non_finite(fields, message):
    with pytest.raises(ValueError, match=message):
        Scenario(**fields)


@pytest.mark.parametrize("fields, foreign", [
    (dict(kind=ScenarioKind.STEP, sigma={1: 0.5}), "sigma"),
    (dict(kind=ScenarioKind.STEP, paths=9, seed=4), "paths, seed"),
    (dict(kind=ScenarioKind.STEP, burn_in=1.0), "burn_in"),
    (dict(kind=ScenarioKind.NOISE, steps={1: -0.1}, seed=1), "steps"),
    (dict(kind=ScenarioKind.NOISE, onset=1.0, seed=1), "onset"),
], ids=["step-sigma", "step-paths-seed", "step-burn_in", "noise-steps",
        "noise-onset"])
def test_scenario_refuses_the_other_kinds_fields(fields, foreign):
    kind = fields["kind"].value
    with pytest.raises(ValueError, match=f"^{kind} scenarios take no {foreign}$"):
        Scenario(t_end=10.0, h=0.1, **fields)


@pytest.mark.parametrize("onset", [5e-324, 1e-200, 3e-15])
def test_onset_the_horizon_cannot_tell_from_zero_runs(onset):
    # a study used to integrate over (0, onset) first, a span LSODA never
    # returned from; it now integrates once, from the onset
    net, comm, gains, _ = load_case(bundled_case_path("homogeneous10"))
    scen = Scenario.step({1: -0.1}, onset=onset, t_end=60.0, h=0.1)
    assert scen.t_end - onset == scen.t_end
    tr = simulate_deterministic(net, comm, "dpiac", gains, scen)
    assert tr.t[-1] == 60.0
    assert np.abs(tr.omega[0]).max() <= 1e-12
    assert np.abs(tr.omega[1]).max() > 1e-6


@pytest.mark.parametrize("t_n", [2.0, 60.0])
@pytest.mark.parametrize("ulps", [3, 4])
def test_onset_within_lsodas_resolution_of_t_n_is_refused(t_n, ulps):
    # LSODA refuses a span under 2 eps max(|t|, |tout|): 3 ulps below t_n
    # are less than 2 eps t_n at both horizons, 4 ulps are not
    onset = t_n
    for _ in range(ulps):
        onset = math.nextafter(onset, 0.0)
    if ulps == 3:
        # so are an onset at t_n and one past it, below a t_end within the
        # slack of t_n: the study would record nothing of the step
        past = t_n * (1 + 1e-10)
        for onset, t_end in ((onset, t_n), (t_n, past), ((t_n + past) / 2, past)):
            with pytest.raises(ValueError, match=re.escape(
                    f"onset {onset!r} lies less than 2 eps t_n below the last "
                    f"recorded time t_n = {t_n!r}")):
                Scenario.step({1: -0.1}, onset=onset, t_end=t_end)
        return
    net, comm, gains, _ = load_case(bundled_case_path("homogeneous10"))
    tr = simulate_deterministic(net, comm, "dpiac", gains,
                                Scenario.step({1: -0.1}, onset=onset, t_end=t_n))
    assert tr.t[-1] == t_n


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(kind=ScenarioKind.STEP, t_end=10.0, h=-0.1, onset=1.0)
    with pytest.raises(ValueError):
        Scenario(kind=ScenarioKind.STEP, t_end=10.0, h=0.1, onset=20.0)
    with pytest.raises(ValueError):
        Scenario(kind=ScenarioKind.NOISE, t_end=10.0, h=0.1, sigma={1: -0.1})
    for t_end in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"^t_end must be positive, got {t_end}$"):
            Scenario(kind=ScenarioKind.STEP, t_end=t_end, h=0.1, onset=0.0)
    with pytest.raises(ValueError, match="^paths must be >= 1$"):
        Scenario(kind=ScenarioKind.NOISE, t_end=10.0, h=0.1, paths=0, seed=1)
    # a float or a bool fails late, in the stepper or in SeedSequence, and
    # seed=True would run as seed 1
    for name, value in (("paths", 2.5), ("paths", True), ("seed", 1.5),
                        ("seed", True)):
        fields = {"paths": 2, "seed": 1, name: value}
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer, got {value!r}$"):
            Scenario(kind=ScenarioKind.NOISE, t_end=10.0, h=0.1, **fields)
    net, comm = ring_net(3)
    bad = Scenario.step({99: -0.1}, onset=1.0, t_end=10.0)
    with pytest.raises(DomainError):
        simulate_deterministic(net, comm, "dpiac", GainSchedule.analytic(1.0), bad)


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_scenario_horizon_and_step_default_per_kind(kind):
    # the constructor, the case files and the CLI all leave t_end and h to
    # DEFAULTS; the named constructors agree with it
    scen = Scenario(kind=kind, seed=1 if kind is ScenarioKind.NOISE else None)
    assert {name: getattr(scen, name) for name in DEFAULTS[kind]} == DEFAULTS[kind]
    named = (Scenario.step({}) if kind is ScenarioKind.STEP
             else Scenario.white_noise({}, seed=1))
    assert named == scen


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


@pytest.mark.parametrize("kind, fields", [
    (ScenarioKind.STEP, dict(t_end=1.0, h=0.07)),
    (ScenarioKind.NOISE, dict(t_end=1.0, h=0.07)),
    # one step past the horizon: Euler-Maruyama used to run on to 1.2 s
    (ScenarioKind.NOISE, dict(t_end=1.0, h=0.6)),
    (ScenarioKind.STEP, dict(t_end=1e-12, h=1.0)),
    # t_end / h overflows to inf
    (ScenarioKind.STEP, dict(t_end=1.0, h=1e-310)),
], ids=["step", "noise", "noise-past-horizon", "no-step", "too-many-steps"])
def test_scenario_refuses_t_end_off_the_step_grid(kind, fields):
    with pytest.raises(ValueError, match=r"is not a whole number of steps h"):
        Scenario(kind=kind, burn_in=0.0 if kind is ScenarioKind.NOISE else None,
                 **fields)


def test_noise_recording_interval_must_end_at_t_end():
    # 2050 steps of 1 ms, recorded every 100: counted back from the last
    scen = Scenario.white_noise({1: 0.01}, seed=1, t_end=2.05, burn_in=0.5)
    assert scen.record_steps() == range(50, 2051, 100)
    assert np.array_equal(scen.record_times(), np.arange(50, 2051, 100) * 1e-3)


def test_record_steps():
    # noise: the whole number of steps nearest 0.1 s, at least one
    assert Scenario.white_noise({}, seed=1, t_end=4.0, burn_in=1.0).record_steps() \
        == range(0, 4001, 100)
    assert Scenario.white_noise({}, seed=1, t_end=0.7, h=0.07,
                                burn_in=0.0).record_steps() == range(0, 11)
    assert Scenario.white_noise({}, seed=1, t_end=2.0, h=0.2,
                                burn_in=0.0).record_steps() == range(0, 11)
    # steps: every step, whatever h
    assert quiet_step(t_end=2.0, h=0.02).record_steps() == range(0, 101)
    assert quiet_step(t_end=2.0, h=0.1).record_steps() == range(0, 21)


@pytest.mark.parametrize("t_end, h, onset", [
    # n * h lies one ulp past t_end: 2.3000000000000003 and 0.7000000000000001
    (2.3, 0.01, 1.0),
    (0.7, 0.07, 0.1),
    (9.0, 0.02, 5.0),
    # within the 1e-9 slack of 6000 steps: the last row is at 60
    (59.99999999, 0.01, 5.0),
    (2.0, 0.01, 0.0),
    (2.0, 0.1, 0.5),
    (2.0, 0.04, 0.333),
    (0.7, 0.07, 0.65),
], ids=["t_n-past-t_end", "coarse-t_n-past-t_end", "h-0.02", "t_end-below-t_n",
        "onset-0", "onset-on-grid", "onset-off-grid", "onset-in-last-step"])
def test_step_study_records_its_grid(t_end, h, onset, monkeypatch):
    import piac.sim

    net, comm, gains, _ = load_case(bundled_case_path("homogeneous10"))
    spans = []
    solve_ivp = piac.sim.solve_ivp

    def recording_solve_ivp(fun, t_span, y0, **options):
        spans.append((t_span, options["t_eval"]))
        return solve_ivp(fun, t_span, y0, **options)

    monkeypatch.setattr(piac.sim, "solve_ivp", recording_solve_ivp)
    scen = Scenario.step({1: -0.1, 4: -0.1}, onset=onset, t_end=t_end, h=h)
    tr = simulate_deterministic(net, comm, "dpiac", gains, scen)
    n = round(t_end / h)
    assert scen.record_steps() == range(0, n + 1)
    assert np.array_equal(tr.t, np.arange(n + 1) * h)
    assert tr.t[-1] == n * h
    # one solve, from the onset, records the rows after it
    [((a, b), t_eval)] = spans
    assert (a, b) == (onset, tr.t[-1])
    assert np.array_equal(t_eval, tr.t[tr.t > onset])
    before = tr.t < onset
    assert np.abs(tr.omega[before]).max(initial=0.0) <= 1e-12
    assert np.abs(tr.theta[before] - tr.theta[0]).max(initial=0.0) <= 1e-12
    # the first row after the onset has moved off the rest point
    after = tr.t > onset
    if after.any():
        assert np.abs(tr.omega[after.argmax()]).max() > 1e-6


@pytest.mark.parametrize("model", ["sin", "linear"])
def test_noise_feeding_a_frequency_is_refused(model, monkeypatch):
    # noise at load bus 3, or at passive bus 5 next to it, reaches bus 3's
    # frequency with no dynamics between: E_S would grow like 1/h. Refused
    # before any step, as the omega norm is by the analysis.
    import piac.sim

    net, comm = mixed_net()
    g = GainSchedule.analytic(1.0, 1.0)
    monkeypatch.setattr(piac.sim, "_euler_maruyama", None)
    for sigma in ({3: 0.01}, {1: 0.01, 5: 0.01}):
        scen = Scenario.white_noise(sigma, seed=1, t_end=1.0, paths=1, burn_in=0.5)
        with pytest.raises(DomainError, match=r"bus\(es\) 3;.*--sigma"):
            simulate_stochastic(net, comm, "dpiac", g, scen, model=model)


@pytest.mark.parametrize("case", ["homogeneous10", "heterogeneous-prices"])
def test_jacobian_matches_closed_loop(case):
    # on a machine-only network the linear model's derivative is A itself,
    # at any state: the same exact formula, up to round-off
    from piac.sim import _SimModel

    net, comm = machine_only_case(case)
    g = GainSchedule(k1=0.8, k2=3.2, k3=4.0)
    rng = np.random.default_rng(29)
    for law in LAWS:
        sys = assemble(net, comm, law, g)
        mo = _SimModel(net, comm, law, g, "linear")
        x = rng.normal(size=sys.dim)
        p = rng.normal(size=net.n_nodes)
        J, _ = mo.linearize(x, p)
        assert J.shape == sys.A.shape
        scale = np.abs(sys.A).max()
        assert np.allclose(J, sys.A, rtol=0, atol=1e-12 * scale), law


def ieee39_step_run():
    net, comm, gains, scen = load_case(bundled_case_path("ieee39-like"))
    return net, scen, simulate_deterministic(net, comm, "dpiac", gains, scen)


def test_ieee39_load_buses_quiet_before_onset():
    # a load-bus frequency is read as (p + u - f) / D with D = 0.2, so it
    # shows any phase error amplified; before the step the rows hold the
    # equilibrium, where only the power flow's round-off remains
    net, scen, tr = ieee39_step_run()
    pre = tr.t < scen.onset - 1e-12
    freq = [tr.node_ids.index(i) for i in net.freq_ids]
    assert freq and pre.sum() > 100
    assert np.abs(tr.omega[np.ix_(pre, freq)]).max() <= 1e-12


def test_ieee39_step_rhs_budget(monkeypatch):
    # the step study is stiff: an explicit scheme needs ~30k evaluations,
    # the stiff integrator with its exact Jacobian stays well below 5000
    import piac.sim

    calls = []
    real = piac.sim.solve_ivp

    def counting(*args, **kwargs):
        sol = real(*args, **kwargs)
        calls.append(sol.nfev)
        return sol

    monkeypatch.setattr(piac.sim, "solve_ivp", counting)
    ieee39_step_run()
    assert len(calls) == 1              # from the onset on
    assert sum(calls) <= 5000


@pytest.mark.parametrize("case", ["homogeneous10", "ieee39-like"])
def test_rows_up_to_the_onset_hold_the_rest_state(case, monkeypatch):
    import piac.sim

    net, comm, gains, scen = load_case(bundled_case_path(case))
    scen = replace(scen, t_end=scen.onset + 1.0)
    states = []
    traces = piac.sim._traces

    def recording_traces(model_obj, t, X, P):
        states.append(X[0])
        return traces(model_obj, t, X, P)

    monkeypatch.setattr(piac.sim, "_traces", recording_traces)
    tr = simulate_deterministic(net, comm, "dpiac", gains, scen)
    x_rest = piac.sim._SimModel(net, comm, "dpiac", gains, "sin").at_rest(
        find_equilibrium(net, "dpiac", gains, comm))
    [X] = states
    up_to = tr.t <= scen.onset
    assert up_to.sum() > 100
    assert np.array_equal(X[up_to], np.tile(x_rest, (up_to.sum(), 1)))
    assert not np.array_equal(X[~up_to][0], x_rest)


def test_simulators_take_the_public_equilibrium(monkeypatch):
    import piac.sim

    calls = []
    real = piac.sim.find_equilibrium

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(piac.sim, "find_equilibrium", counting)
    net, comm = ring_net(3, k=2.0)
    g = GainSchedule.analytic(1.0, 1.0)
    simulate_deterministic(net, comm, "dpiac", g,
                           Scenario.step({1: -0.1}, onset=0.5, t_end=1.0))
    assert len(calls) == 1
    simulate_stochastic(net, comm, "dpiac", g, Scenario.white_noise(
        {1: 0.01}, seed=1, t_end=0.5, paths=2, burn_in=0.1))
    assert len(calls) == 2


# S and C of the bundled step scenarios over [0, 40] s, first computed with
# RK45 at rtol 1e-8, atol 1e-10; LSODA reproduces them to 1e-6
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
                 mc=np.full((T, n), u_val))


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


@pytest.fixture(scope="module")
def homogeneous10_dpiac_trace():
    net, comm, gains, scen = load_case(bundled_case_path("homogeneous10"))
    return simulate_deterministic(net, comm, "dpiac", gains, scen), net.prices


def trapezoid_to(trace, alpha, t0):
    """S and C by the trapezoid rule on the rows before ``t0`` and a row at
    ``t0`` interpolated linearly, as the rule's integrand is."""
    keep = trace.t < t0
    t = np.append(trace.t[keep], t0)
    out = []
    for f in ((trace.omega_controllers ** 2).sum(axis=1),
              (trace.u ** 2 * alpha).sum(axis=1)):
        out.append(float(np.trapezoid(np.append(f[keep], np.interp(t0, trace.t, f)), t)))
    return out[0], 0.5 * out[1]


@pytest.mark.parametrize("t0", [40.00999, 39.995, 39.9999999995])
def test_metrics_window_ends_inside_its_panel(homogeneous10_dpiac_trace, t0):
    # each t0 ends inside a panel of the 0.01 s grid; the last lies within
    # the 1e-9 s horizon slack of a row, yet short of it
    tr, alpha = homogeneous10_dpiac_trace
    met = compute_metrics(tr, alpha, t0=t0)
    S, C = trapezoid_to(tr, alpha, t0)
    assert met.S == pytest.approx(S, rel=1e-13, abs=0)
    assert met.C == pytest.approx(C, rel=1e-13, abs=0)
    assert met.t0 == t0
    below, above = (compute_metrics(tr, alpha, t0=np.floor(t0 * 100) / 100),
                    compute_metrics(tr, alpha, t0=np.ceil(t0 * 100) / 100))
    assert below.C < met.C < above.C


def test_metrics_on_the_grid_integrate_whole_panels(homogeneous10_dpiac_trace):
    tr, alpha = homogeneous10_dpiac_trace
    rows = tr.t <= 40.0 + 1e-12
    met = compute_metrics(tr, alpha, t0=40.0)
    assert met.S == float(np.trapezoid((tr.omega_controllers[rows] ** 2).sum(axis=1),
                                       tr.t[rows]))
    assert met.C == 0.5 * float(np.trapezoid((tr.u[rows] ** 2 * alpha).sum(axis=1),
                                             tr.t[rows]))


def test_metrics_window_in_the_slack_ends_at_the_last_row(homogeneous10_dpiac_trace):
    tr, alpha = homogeneous10_dpiac_trace
    last = compute_metrics(tr, alpha, t0=tr.t[-1])
    met = compute_metrics(tr, alpha, t0=tr.t[-1] + 5e-10)
    assert (met.S, met.C, met.t0) == (last.S, last.C, tr.t[-1])
    with pytest.raises(InsufficientHorizon):
        compute_metrics(tr, alpha, t0=tr.t[-1] + 2e-9)


@pytest.mark.parametrize("t0", [math.nan, 0.0, -1.0, math.inf])
def test_metrics_window_must_be_finite_and_positive(t0):
    # each of these read S = C = 0 on a moving trace
    tr = synthetic_trace(np.linspace(0, 50, 501), omega_val=0.1, u_val=0.3)
    with pytest.raises(DomainError, match="t0 must be finite and positive"):
        compute_metrics(tr, np.ones(1), t0=t0)


@pytest.mark.parametrize("alpha", [np.ones(1), np.ones(4), np.ones((3, 1))])
def test_metrics_need_one_price_per_controller(alpha):
    # a length-1 alpha used to broadcast over the controllers
    tr = synthetic_trace(np.linspace(0, 50, 501), u_val=0.3, n=3)
    with pytest.raises(ShapeError, match=r"one price per controller: \(3,\)"):
        compute_metrics(tr, alpha)


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


def test_stochastic_blowup_detected(monkeypatch):
    # a one-second Euler-Maruyama step on a stiff ring is unstable: refused
    # before any step. On a stable step, a state past the blow-up limit must
    # still surface as an error, not as NaNs in the trace
    import piac.sim
    from piac import NumericalBlowup

    net, comm = ring_net(3, k=5.0)
    g = GainSchedule.analytic(1.0, 1.0)
    scen = Scenario(kind=ScenarioKind.NOISE, t_end=400.0, h=1.0,
                    sigma={1: 0.01}, paths=1, burn_in=10.0, seed=3)
    monkeypatch.setattr(piac.sim, "_euler_maruyama", None)
    with pytest.raises(DomainError, match=r"step h = 1 does not resolve the loop"):
        simulate_stochastic(net, comm, "dpiac", g, scen, model="linear")
    monkeypatch.undo()
    monkeypatch.setattr(piac.sim, "_BLOWUP_LIMIT", 0.0)
    with pytest.raises(NumericalBlowup, match=r"diverged by t = 0.1 s: path 0"):
        simulate_stochastic(net, comm, "dpiac", g,
                            replace(scen, t_end=1.0, h=1e-2, burn_in=0.5),
                            model="linear")


def _state_size(trace):
    # homogeneous10 has machines only: theta, omega, eta and xi are its
    # packed state, so this is max |x| per recorded row
    return np.abs(np.hstack([trace.theta, trace.omega, trace.eta,
                             trace.xi])).max(axis=1)


def test_step_blowup_names_its_time_and_size(monkeypatch):
    import piac.sim
    from piac import NumericalBlowup

    net, comm, gains, scen = load_case(bundled_case_path("homogeneous10"))
    scen = replace(scen, t_end=2.0, onset=0.5)
    trace = simulate_deterministic(net, comm, "dpiac", gains, scen)
    size = _state_size(trace)
    limit = 0.5 * size.max()
    k = np.flatnonzero(size > limit)[0]
    assert trace.t[k] > scen.onset
    monkeypatch.setattr(piac.sim, "_BLOWUP_LIMIT", limit)
    with pytest.raises(NumericalBlowup) as exc:
        simulate_deterministic(net, comm, "dpiac", gains, scen)
    got = re.fullmatch(r"state beyond the blow-up limit (\S+) at t = (\S+) s "
                       r"\(max \|x\| = (\S+)\)", str(exc.value))
    assert got, str(exc.value)
    assert float(got[1]) == pytest.approx(limit, rel=1e-5)
    assert float(got[2]) == pytest.approx(trace.t[k], rel=1e-5)
    assert float(got[3]) == pytest.approx(size[k], rel=1e-5)


def test_noise_blowup_names_its_time_path_and_size(monkeypatch):
    import piac.sim
    from piac import NumericalBlowup

    net, comm, gains, _ = load_case(bundled_case_path("homogeneous10"))
    scen = Scenario(kind=ScenarioKind.NOISE, t_end=1.0, h=1e-3,
                    sigma={1: 0.5, 4: 0.5, 7: 0.5}, paths=3, burn_in=0.5, seed=5)
    traces, _ = simulate_stochastic(net, comm, "dpiac", gains, scen)
    # checked at every recorded row after the start
    size = np.array([_state_size(tr) for tr in traces])[:, 1:]
    limit = 0.5 * size[:, 0].max()
    k = np.flatnonzero((size > limit).any(axis=0))[0]
    path = np.flatnonzero(size[:, k] > limit)[0]
    assert path > 0
    monkeypatch.setattr(piac.sim, "_BLOWUP_LIMIT", limit)
    with pytest.raises(NumericalBlowup) as exc:
        simulate_stochastic(net, comm, "dpiac", gains, scen)
    got = re.fullmatch(r"stochastic ensemble diverged by t = (\S+) s: "
                       r"path (\d+), max \|x\| = (\S+)", str(exc.value))
    assert got, str(exc.value)
    assert float(got[1]) == pytest.approx(traces[0].t[k + 1])
    assert int(got[2]) == path
    assert float(got[3]) == pytest.approx(size[path, k], rel=1e-5)


def test_stochastic_requires_seed():
    net, comm = ring_net(3)
    scen = Scenario(kind=ScenarioKind.NOISE, t_end=1.0, h=1e-3, sigma={1: 0.01},
                    paths=1, burn_in=0.1)
    with pytest.raises(DomainError):
        simulate_stochastic(net, comm, "dpiac", GainSchedule.analytic(1.0), scen)


def test_stochastic_nonlinear_mixed_network():
    # noise at the machines; every step still solves the passive balance
    net, comm = mixed_net()
    g = GainSchedule.analytic(1.0, 1.0)
    scen = Scenario.white_noise({1: 0.002, 2: 0.002}, seed=7, t_end=4.0,
                                h=1e-3, paths=2, burn_in=1.0)
    traces, met = simulate_stochastic(net, comm, "dpiac", g, scen)
    assert met.E_S >= 0.0 and np.isfinite(met.E_S)
    for tr in traces:
        assert np.all(np.isfinite(tr.theta))
        passive_cols = [tr.node_ids.index(i) for i in net.passive_ids]
        assert np.all(np.isnan(tr.omega[:, passive_cols]))


def test_sin_noise_run_builds_one_model(monkeypatch):
    # the feedthrough refusal reads the stepped sine model's matrices at the
    # origin, where they are the linear model's: no second model is built
    # (find_equilibrium builds its own, for the power flow; it is taken out)
    import piac.sim
    from piac.closedloop import _SimModel

    net, comm = mixed_net()
    g = GainSchedule.analytic(1.0, 1.0)
    eq = find_equilibrium(net, "dpiac", g, comm)
    monkeypatch.setattr(piac.sim, "find_equilibrium", lambda *args: eq)
    built = []

    def counting_model(*args, **kwargs):
        built.append(_SimModel(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(piac.sim, "_SimModel", counting_model)
    scen = Scenario.white_noise({1: 0.002, 2: 0.002}, seed=7, t_end=0.1,
                                h=1e-2, paths=2, burn_in=0.0)
    simulate_stochastic(net, comm, "dpiac", g, scen)
    assert [model.model for model in built] == ["sin"]


@pytest.mark.parametrize("law", LAWS)
def test_stepper_paths_agree_on_linear_model(law, monkeypatch):
    # the linear model's matrices and its rhs drive the same Euler-Maruyama
    # loop from the same spawned streams; they must coincide up to
    # floating-point accumulation, on a machine ring, on a mixed network,
    # whose passive and frequency-dependent buses the noise at its machines
    # reaches through the lines, and on a chain with noise at a passive bus
    # that no load bus can be reached from, which the stepper accepts
    from piac.sim import _SimModel, _euler_maruyama, _node_vector, _traces

    ring, ring_comm = ring_net(3, k=3.0)
    mixed, mixed_comm = mixed_net()
    chain, chain_comm = loaded_chain()
    g = GainSchedule.analytic(1.0, 1.0)
    rhs, calls = _SimModel.rhs, []

    def counting_rhs(self, x, p_eff):
        calls.append(x.shape)
        return rhs(self, x, p_eff)

    for net, comm, sigma in ((ring, ring_comm, {1: 0.005, 2: 0.002}),
                             (mixed, mixed_comm, {1: 0.005, 2: 0.002}),
                             (chain, chain_comm, {2: 0.005, 1: 0.002})):
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
                                  model_obj.at_rest(eq), _node_vector(net, scen.sigma),
                                  scen)
        slow = _traces(model_obj, t, X, p + W)
        for k in range(2):
            assert np.allclose(slow[k].omega, fast[k].omega, rtol=1e-8, atol=1e-12,
                               equal_nan=True)
            assert np.allclose(slow[k].u, fast[k].u, rtol=1e-8, atol=1e-12)


def test_noise_chunks_do_not_change_the_draws(monkeypatch):
    # the jitter is drawn in chunks of whole steps sized by a byte budget;
    # single-step chunks and one chunk for the whole run give the same arrays
    import piac.sim
    from piac.sim import _euler_maruyama

    # 50 steps, recorded every 10
    scen = Scenario.white_noise({1: 0.01, 3: 0.02}, seed=17, t_end=0.5,
                                h=0.01, paths=3, burn_in=0.0)
    sig = np.array([0.01, 0.0, 0.02, 0.0])
    A = -np.eye(4) + 0.1 * np.eye(4, k=1)
    runs = []
    for budget in (1, 8 * 3 * 4 * 50):
        monkeypatch.setattr(piac.sim, "_NOISE_CHUNK_BYTES", budget)
        runs.append(_euler_maruyama(lambda X, W: X @ A.T + W, np.ones(4), sig,
                                    scen))
    for one_step, whole in zip(*runs):
        assert np.array_equal(one_step, whole)


def test_sin_ensemble_path_independent_of_ensemble_size():
    # the batched passive Newton freezes and damps each path on its own, so
    # a path does not see how many others step beside it
    net, comm = mixed_net()
    g = GainSchedule.analytic(1.0, 1.0)
    runs = []
    for paths in (2, 3):
        scen = Scenario.white_noise({1: 0.01, 2: 0.005}, seed=11,
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


def passive_mismatch(mo, theta_mf, p_pas):
    """Solve the passive balance of ``mo`` and return the solution, its max
    mismatch as the damped Newton measures it, and that Newton's tolerance."""
    theta_p, gap = mo._balance(theta_mf, p_pas)
    g = np.abs(p_pas - mo.line_flows(gap) @ mo.E_p).max(axis=-1)
    return theta_p, g, 1e-12 * np.maximum(1.0, np.abs(p_pas).max(axis=-1))


def counting_linear_algebra(mo, monkeypatch):
    """Record each passive Jacobian ``mo`` builds and each ``_solve`` call."""
    import piac.closedloop

    calls = []
    gram, solve = mo._passive_gram, piac.closedloop._solve

    def counting_gram(c):
        calls.append("jacobian")
        return gram(c)

    def counting_solve(*args):
        calls.append("solve")
        return solve(*args)

    monkeypatch.setattr(mo, "_passive_gram", counting_gram)
    monkeypatch.setattr(piac.closedloop, "_solve", counting_solve)
    return calls


def test_nearby_passive_solve_takes_only_chord_steps(monkeypatch):
    # the inverse Jacobian of one solve carries the next, at phases moved
    # by 1e-4, to the tolerance: no Jacobian is built and nothing is solved
    from piac.closedloop import _SimModel

    net, comm, gains, _ = load_case(bundled_case_path("ieee39-like"))
    mo = _SimModel(net, comm, "dpiac", gains, "sin")
    theta_mf = mo.at_rest(find_equilibrium(net, "dpiac", gains, comm))[:mo.n_mf]
    p_pas = net.injections[mo.pas]
    before = mo.solve_passive(theta_mf, p_pas)
    calls = counting_linear_algebra(mo, monkeypatch)
    moved = theta_mf + 1e-4 * np.random.default_rng(7).uniform(-1, 1, mo.n_mf)
    theta_p, g, tol = passive_mismatch(mo, moved, p_pas)
    assert calls == []
    assert g <= tol
    assert np.abs(theta_p - before).max() > 1e-6
    cold = _SimModel(net, comm, "dpiac", gains, "sin").solve_passive(moved, p_pas)
    assert np.allclose(theta_p, cold, rtol=0, atol=1e-12)


def test_stale_passive_inverse_falls_back_to_newton(monkeypatch):
    # the inverse Jacobian kept where the corridor's gaps are 1 rad does not
    # halve the mismatch where they are 1/6 rad; the solve goes on with
    # Newton, meets the tolerance and finds the cold start's solution
    from piac.closedloop import _SimModel

    net, comm = loaded_chain()
    g = GainSchedule.analytic(1.0, 1.0)
    model = lambda: _SimModel(net, comm, "dpiac", g, "sin")
    mo, p_pas, now = model(), np.zeros(2), np.array([0.25, -0.25])
    mo.solve_passive(np.array([1.5, -1.5]), p_pas)
    # precondition: the stale chord step does not halve the mismatch
    z, K = mo._theta_p_warm[(2,)]
    mismatch = lambda z: p_pas - mo.flows(np.insert(now, [1, 1], z))[mo.pas]
    g0 = mismatch(z)
    assert np.abs(mismatch(z + K @ g0)).max() > 0.5 * np.abs(g0).max()
    calls = counting_linear_algebra(mo, monkeypatch)
    theta_p, gn, tol = passive_mismatch(mo, now, p_pas)
    assert "jacobian" in calls and "solve" in calls
    assert gn <= tol
    assert np.allclose(theta_p, model().solve_passive(now, p_pas), rtol=0, atol=1e-12)


def test_passive_solve_that_falls_back_restarts_cold():
    # where the corridor is 3 rad across, the kept iterate and inverse are
    # far from the next solve's: its first chord step raises the mismatch,
    # and Newton from that iterate would find another root of the flows,
    # (2.64, 3.64), than the one a fresh model finds, (1/6, -1/6)
    from piac.closedloop import _SimModel

    net, comm = loaded_chain()
    g = GainSchedule.analytic(1.0, 1.0)
    model = lambda: _SimModel(net, comm, "dpiac", g, "sin")
    mo, p_pas, now = model(), np.zeros(2), np.array([0.5, -0.5])
    mo.solve_passive(np.array([1.0, -2.0]), p_pas)
    # precondition: the chord step from the kept solve does not halve the mismatch
    z, K = mo._theta_p_warm[(2,)]
    mismatch = lambda z: p_pas - mo.flows(np.insert(now, [1, 1], z))[mo.pas]
    assert np.abs(mismatch(z + K @ mismatch(z))).max() > 0.5 * np.abs(mismatch(z)).max()
    fresh = model().solve_passive(now, p_pas)
    assert np.allclose(fresh, [1 / 6, -1 / 6], rtol=0, atol=1e-14)
    assert np.allclose(mo.solve_passive(now, p_pas), fresh, rtol=0, atol=1e-14)


def test_batched_chord_and_fallback_match_unbatched():
    # one element's kept inverse is stale and falls back to Newton, the
    # other's carries it by chord steps: each solves, and keeps an inverse
    # for the next solve, as it would alone
    from piac.closedloop import _SimModel

    net, comm = loaded_chain()
    g = GainSchedule.analytic(1.0, 1.0)
    model = lambda: _SimModel(net, comm, "dpiac", g, "sin")
    before = np.array([[1.5, -1.5], [0.0, 0.0]])
    now = np.array([[0.25, -0.25], [0.25, -0.25]])
    p_pas = np.zeros((2, 2))
    mo = model()
    mo.solve_passive(before, p_pas)
    batched, gn, tol = passive_mismatch(mo, now, p_pas)
    assert np.all(gn <= tol)
    built = []
    for k in range(2):
        alone = model()
        alone.solve_passive(before[k], p_pas[k])
        gram = alone._passive_gram
        alone._passive_gram = lambda c: built.append(k) or gram(c)
        assert np.allclose(batched[k], alone.solve_passive(now[k], p_pas[k]),
                           rtol=0, atol=1e-14)
        assert np.allclose(mo._theta_p_warm[(2, 2)][1][k],
                           alone._theta_p_warm[(2,)][1], rtol=0, atol=1e-14)
    # precondition: alone, the first element builds Jacobians, the second none
    assert set(built) == {0}


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


EDGE_VALUES = [np.nan, -np.nan, -0.0, 1e-300, 1e300, np.inf, -np.inf, 5e-324]

EDGE_ROWS = """\
,1,,1e-300,inf,-inf,4.94065645841e-324,
,2,-0,1e+300,,,,
,1,-0,1e+300,-inf,4.94065645841e-324,,
,2,1e-300,inf,,,,
-0,1,1e-300,inf,4.94065645841e-324,,,-0
-0,2,1e+300,-inf,,,,
1e-300,1,1e+300,-inf,,,-0,1e-300
1e-300,2,inf,4.94065645841e-324,,,,
1e+300,1,inf,4.94065645841e-324,,-0,1e-300,1e+300
1e+300,2,-inf,,,,,
inf,1,-inf,,-0,1e-300,1e+300,inf
inf,2,4.94065645841e-324,,,,,
-inf,1,4.94065645841e-324,,1e-300,1e+300,inf,-inf
-inf,2,,-0,,,,
4.94065645841e-324,1,,-0,1e+300,inf,-inf,4.94065645841e-324
4.94065645841e-324,2,,1e-300,,,,
"""


def test_csv_edge_values_literal():
    # every edge value in every column: time step k holds EDGE_VALUES[k + j]
    # in column j of t | theta | omega | eta | xi | u | mc; node 1 has the
    # controller, node 2 none. NaN of either sign is an empty field.
    cols = np.array([[EDGE_VALUES[(k + j) % 8] for j in range(9)] for k in range(8)])
    assert np.signbit(cols[1, 0]) and np.isnan(cols[1, 0])
    tr = Trace(t=cols[:, 0], node_ids=(1, 2), theta=cols[:, 1:3],
               omega=cols[:, 3:5], controller_ids=(1,), eta=cols[:, 5:6],
               xi=cols[:, 6:7], u=cols[:, 7:8], mc=cols[:, 8:9])
    buf = io.StringIO()
    write_trace_csv(buf, tr)
    assert buf.getvalue() == "t,node,theta,omega,eta,xi,u,mc\n" + EDGE_ROWS
    buf = io.StringIO()
    write_ensemble_csv(buf, [tr, tr])
    rows = EDGE_ROWS.splitlines(keepends=True)
    assert buf.getvalue() == ("path,t,node,theta,omega,eta,xi,u,mc\n"
                              + "".join("0," + r for r in rows)
                              + "".join("1," + r for r in rows))


def plain_csv(trace):
    """The trace CSV written row by row, each number ``%.12g`` and each NaN
    an empty field."""
    fmt = lambda v: "" if math.isnan(v) else "%.12g" % v
    ctrl = {nid: k for k, nid in enumerate(trace.controller_ids)}
    out = ["t,node,theta,omega,eta,xi,u,mc\n"]
    for r, t in enumerate(trace.t):
        for col, nid in enumerate(trace.node_ids):
            k = ctrl.get(nid)
            pairs = [] if k is None else [getattr(trace, f)[r, k]
                                          for f in ("eta", "xi", "u", "mc")]
            fields = [fmt(v) for v in [trace.theta[r, col], trace.omega[r, col]] + pairs]
            out.append(",".join([fmt(t), str(nid)] + fields + [""] * (6 - len(fields))) + "\n")
    return "".join(out)


def test_csv_writer_matches_a_row_by_row_formatter():
    # the block writer leaves a passive node's omega, NaN throughout, out of
    # its template; a NaN elsewhere, here in u, still reads as an empty field
    net, comm, gains, _ = load_case(bundled_case_path("ieee39-like"))
    scen = Scenario.step({4: -0.5, 12: -0.3}, onset=0.5, t_end=1.5, h=0.01)
    tr = simulate_deterministic(net, comm, "dpiac", gains, scen)
    passive = [tr.node_ids.index(i) for i in net.passive_ids]
    assert passive and np.isnan(tr.omega[:, passive]).all()
    u = tr.u.copy()
    u[70, 3] = np.nan
    for trace in (tr, replace(tr, u=u)):
        buf = io.StringIO()
        write_trace_csv(buf, trace)
        assert buf.getvalue() == plain_csv(trace)
