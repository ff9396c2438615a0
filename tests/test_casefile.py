import pytest

from piac import (CaseFormatError, DisconnectedNetwork, ScenarioKind,
                  bundled_case_path, dumps_case, load_case, loads_case,
                  save_case)

GOOD = """
[nodes]
1 machine M=1.0 D=1.0 P=0.2 alpha=1.0
2 freq D=0.5 P=-0.2 alpha=2.0
3 passive P=0.0
[edges]
1 2 K=1.5
2 3 K=2.0
[comm]
1 2 l=1.0
[gains]
k1=0.5
k2=2.0
k3=1.0
[scenario]
kind=step
t_end=30.0
h=0.01
onset=2.0
step=2:-0.1
"""


def test_load_good_case():
    net, comm, gains, scen = loads_case(GOOD)
    assert net.machine_ids == (1,)
    assert net.freq_ids == (2,)
    assert net.passive_ids == (3,)
    assert net.controller_ids == (1, 2)
    assert comm.weights == ((1, 2, 1.0),)
    assert gains.k1 == 0.5 and gains.k2 == 2.0 and gains.k3 == 1.0
    assert scen.kind is ScenarioKind.STEP
    assert scen.steps == {2: -0.1}


def test_roundtrip_identity():
    loaded = loads_case(GOOD)
    text = dumps_case(*loaded)
    again = loads_case(text)
    assert again == loaded
    assert dumps_case(*again) == text


def test_roundtrip_bundled(tmp_path):
    for name in ("homogeneous10", "ieee39-like"):
        loaded = load_case(bundled_case_path(name))
        out = tmp_path / f"{name}.case"
        save_case(out, *loaded)
        assert load_case(out) == loaded


def test_bundled_homogeneous10():
    net, comm, gains, scen = load_case(bundled_case_path("homogeneous10"))
    assert len(net.machine_ids) == 10
    assert all(n.inertia == 1.0 and n.damping == 1.0 for n in net.nodes)
    assert gains.k2 == 4.0 * gains.k1
    assert sum(scen.steps.values()) == pytest.approx(-0.3)


def test_bundled_ieee39_like():
    net, comm, gains, scen = load_case(bundled_case_path("ieee39-like"))
    assert len(net.machine_ids) == 10
    assert len(net.freq_ids) == 19
    assert len(net.passive_ids) == 10
    assert sum(n.injection for n in net.nodes) == pytest.approx(0.0, abs=1e-12)


def test_missing_edge_weight():
    bad = GOOD.replace("1 2 K=1.5", "1 2 1.5")
    with pytest.raises(CaseFormatError) as err:
        loads_case(bad, path="bad.case")
    assert "bad.case" in str(err.value)
    assert "key=value" in str(err.value) or "K" in str(err.value)


def test_error_carries_line_number():
    bad = GOOD.replace("2 freq D=0.5 P=-0.2 alpha=2.0",
                       "2 freq D=zero P=-0.2 alpha=2.0")
    with pytest.raises(CaseFormatError) as err:
        loads_case(bad, path="bad.case")
    assert ":4:" in str(err.value)


def test_unknown_section():
    with pytest.raises(CaseFormatError):
        loads_case("[wat]\n")


def test_content_before_section():
    with pytest.raises(CaseFormatError):
        loads_case("1 machine M=1 D=1 alpha=1\n[nodes]\n")


def test_duplicate_node():
    bad = GOOD.replace("3 passive P=0.0", "1 passive P=0.0")
    with pytest.raises(CaseFormatError):
        loads_case(bad)


def test_disconnected_case():
    bad = GOOD.replace("2 3 K=2.0", "")
    with pytest.raises(DisconnectedNetwork):
        loads_case(bad)


def test_comm_must_connect_controllers():
    text = """
[nodes]
1 machine M=1 D=1 alpha=1
2 machine M=1 D=1 alpha=1
3 machine M=1 D=1 alpha=1
[edges]
1 2 K=1.0
2 3 K=1.0
[comm]
1 2 l=1.0
"""
    with pytest.raises(DisconnectedNetwork):
        loads_case(text)


def test_comm_edge_to_passive_node_rejected():
    bad = GOOD.replace("1 2 l=1.0", "1 2 l=1.0\n1 3 l=1.0")
    with pytest.raises(CaseFormatError) as err:
        loads_case(bad)
    assert "no controller" in str(err.value)


def test_noise_scenario():
    text = GOOD.replace(
        "kind=step\nt_end=30.0\nh=0.01\nonset=2.0\nstep=2:-0.1",
        "kind=noise\nt_end=100.0\nh=0.001\nsigma=3:0.002\npaths=4\nburn_in=10.0\nseed=7")
    _, _, _, scen = loads_case(text)
    assert scen.kind is ScenarioKind.NOISE
    assert scen.sigma == {3: 0.002}
    assert scen.paths == 4 and scen.seed == 7


@pytest.mark.parametrize("body, kind, t_end, h", [
    ("kind=step\nstep=2:-0.1", ScenarioKind.STEP, 60.0, 0.01),
    ("kind=noise\nsigma=3:0.002\nseed=7", ScenarioKind.NOISE, 250.0, 1e-3),
], ids=["step", "noise"])
def test_scenario_horizon_defaults_follow_the_kind(body, kind, t_end, h):
    # a file without t_end= or h= runs at the same horizon and step as the
    # CLI and the Scenario constructors of its kind
    text = GOOD.replace("kind=step\nt_end=30.0\nh=0.01\nonset=2.0\nstep=2:-0.1", body)
    _, _, _, scen = loads_case(text)
    assert scen.kind is kind
    assert (scen.t_end, scen.h) == (t_end, h)


def test_scenario_unknown_node():
    bad = GOOD.replace("step=2:-0.1", "step=99:-0.1")
    with pytest.raises(CaseFormatError):
        loads_case(bad)


def test_missing_sections():
    with pytest.raises(CaseFormatError):
        loads_case("[nodes]\n1 machine M=1 D=1 alpha=1\n")


def test_canonical_text_golden():
    # the canonical serialization is a stable interface: sections in fixed
    # order, nodes by id, edges as low-high pairs, repr floats
    text = """
[edges]
2 1 K=1.5
[nodes]
2 freq D=0.5 P=-0.25 alpha=2.0
1 machine M=1.0 D=1.0 P=0.25 alpha=1.0
[gains]
k1=0.5 k2=2.0
"""
    expected = (
        "[nodes]\n"
        "1 machine M=1.0 D=1.0 P=0.25 alpha=1.0 V=1.0\n"
        "2 freq D=0.5 P=-0.25 alpha=2.0 V=1.0\n"
        "[edges]\n"
        "1 2 K=1.5\n"
        "[gains]\n"
        "k1=0.5\n"
        "k2=2.0\n"
        "k3=0.0\n")
    assert dumps_case(*loads_case(text)) == expected
