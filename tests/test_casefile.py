import re
from dataclasses import fields

import pytest

import piac.casefile as casefile
from piac import (CaseFormatError, DisconnectedNetwork, GainSchedule, NodeKind,
                  Scenario, ScenarioKind, bundled_case_path, dumps_case,
                  load_case, loads_case, save_case)
from piac.scenario import _FOREIGN

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


def test_negative_seed_is_format_error():
    # numpy's SeedSequence takes no negative entropy
    text = GOOD.replace(
        "kind=step\nt_end=30.0\nh=0.01\nonset=2.0\nstep=2:-0.1",
        "kind=noise\nsigma=3:0.002\nseed=-1")
    with pytest.raises(CaseFormatError, match="seed must be non-negative, got -1"):
        loads_case(text)


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


@pytest.mark.parametrize("body", [
    "kind=step\nt_end=30.005\nh=0.01\nonset=2.0\nstep=2:-0.1",
    "kind=noise\nt_end=1.0\nh=0.07\nsigma=1:0.002\nburn_in=0.5\nseed=7",
    "kind=step\nt_end=1.0\nh=1e-310\nonset=0.5\nstep=2:-0.1",
], ids=["step", "noise", "too-many-steps"])
def test_t_end_off_the_step_grid_is_format_error(body):
    text = GOOD.replace("kind=step\nt_end=30.0\nh=0.01\nonset=2.0\nstep=2:-0.1", body)
    with pytest.raises(CaseFormatError, match=r"\[scenario\]: t_end \S+ is not a "
                       r"whole number of steps h"):
        loads_case(text)


@pytest.mark.parametrize("body, message", [
    ("kind=step\nstep=2:-0.1\nstep=2:-0.3", "step names node 2 twice"),
    ("kind=noise\nsigma=1:0.002\nsigma=1:0.004\nseed=7", "sigma names node 1 twice"),
], ids=["step", "sigma"])
def test_node_named_twice_in_the_scenario_is_format_error(body, message):
    # the repeated line is refused; the last value used to win silently
    text = GOOD.replace("kind=step\nt_end=30.0\nh=0.01\nonset=2.0\nstep=2:-0.1", body)
    with pytest.raises(CaseFormatError, match=f"^bad.case:18: {message}$"):
        loads_case(text, path="bad.case")


@pytest.mark.parametrize("key, value, message", [
    ("t_end", "abc", "not a number: 'abc'"),
    ("h", "inf", "not a finite number: 'inf'"),
    ("onset", "2s", "not a number: '2s'"),
    ("burn_in", "x", "not a number: 'x'"),
    ("paths", "2.5", "not an integer: '2.5'"),
    ("seed", "2.5", "not an integer: '2.5'"),
])
def test_scenario_number_is_parsed_at_its_line(key, value, message):
    text = GOOD.replace("kind=step\nt_end=30.0\nh=0.01\nonset=2.0\nstep=2:-0.1",
                        f"kind=step\n{key}={value}\nstep=2:-0.1")
    with pytest.raises(CaseFormatError, match=f"^bad.case:17: scenario {key}: {message}$"):
        loads_case(text, path="bad.case")


def test_onset_within_the_integrators_resolution_of_t_n_is_format_error():
    # and an onset past t_n = 2, below a t_end within its slack
    for t_end, onset in (("2.0", "1.9999999999999998"), ("2.000000001", "2.0000000005")):
        text = GOOD.replace("t_end=30.0\nh=0.01\nonset=2.0",
                            f"t_end={t_end}\nh=0.01\nonset={onset}")
        with pytest.raises(CaseFormatError, match=rf"\[scenario\]: onset {re.escape(onset)} "
                           r"lies less than 2 eps t_n below the last recorded time "
                           r"t_n = 2\.0"):
            loads_case(text)


def test_burn_in_past_the_last_recorded_row_is_format_error():
    # t_end = 1.0000000005 is 100 steps of 0.01 within its slack, so the last
    # recorded row lies at t_n = 1, before the burn-in
    text = GOOD.replace("kind=step\nt_end=30.0\nh=0.01\nonset=2.0\nstep=2:-0.1",
                        "kind=noise\nt_end=1.0000000005\nh=0.01\nsigma=1:0.002\n"
                        "burn_in=1.0000000004\nseed=7")
    with pytest.raises(CaseFormatError, match=r"\[scenario\]: burn_in 1\.0000000004 "
                       r"lies past the last recorded time t_n = 1\.0: no recorded row"):
        loads_case(text)


def test_node_voltage_other_than_one_is_format_error():
    # nothing reads V: the line's K= is the effective susceptance already
    with pytest.raises(CaseFormatError, match=r"<string>:3: field V: '2' .*K= is "
                       "already the effective susceptance"):
        loads_case(GOOD.replace("alpha=1.0\n", "alpha=1.0 V=2\n", 1))
    text = GOOD.replace("alpha=1.0\n", "alpha=1.0 V=1\n", 1)
    assert loads_case(text) == loads_case(GOOD)
    assert "1 machine M=1.0 D=1.0 P=0.2 alpha=1.0 V=1.0\n" in dumps_case(*loads_case(GOOD))


def test_scenario_unknown_node():
    # checked once every section is read, but named at its own line
    scenario = "kind=step\nt_end=30.0\nh=0.01\nonset=2.0\nstep=2:-0.1"
    for body, message in (
            ("kind=step\nstep=2:-0.1\nstep=99:-0.1", "18: step references unknown node 99"),
            ("kind=noise\nsigma=99:0.002\nsigma=1:0.002\nseed=7",
             "17: sigma references unknown node 99")):
        with pytest.raises(CaseFormatError, match=f"^bad.case:{message}$"):
            loads_case(GOOD.replace(scenario, body), path="bad.case")


def test_roundtrip_noise_scenario():
    noise = ("kind=noise\nt_end=100.0\nh=0.001\nsigma=1:0.002\nsigma=2:0.003\n"
             "paths=4\nburn_in=10.0\nseed=7")
    loaded = loads_case(GOOD.replace(
        "kind=step\nt_end=30.0\nh=0.01\nonset=2.0\nstep=2:-0.1", noise))
    text = dumps_case(*loaded)
    assert text.endswith("[scenario]\n" + noise + "\n")
    assert loads_case(text) == loaded


def test_the_key_tables_cover_every_field():
    # a field the tables miss would be neither read nor written
    assert ([f.name for f in casefile._SCENARIO.values()]
            == [f.name for f in fields(Scenario)])
    assert list(casefile._GAINS) == [f.name for f in fields(GainSchedule)]


@pytest.mark.parametrize("scenario, full", [
    (Scenario.step({3: 0.05, 1: -0.1}, onset=1.5, t_end=20.0, h=0.02), True),
    (Scenario.white_noise({2: 0.003, 1: 0.002}, seed=7, t_end=100.0, h=0.001,
                          paths=4, burn_in=10.0), True),
    (Scenario(kind=ScenarioKind.STEP), False),
    (Scenario(kind=ScenarioKind.NOISE), False),
], ids=["step-full", "noise-full", "step-unset", "noise-unset"])
def test_every_field_round_trips_through_the_key_tables(scenario, full):
    net, comm, _, _ = loads_case(GOOD)
    gains = GainSchedule(k1=0.5, k2=3.0, k3=0.25)
    assert {node.kind for node in net.nodes} == set(NodeKind)
    assert not gains.analytic_mode
    text = dumps_case(net, comm, gains, scenario)
    assert loads_case(text) == (net, comm, gains, scenario)
    if full:
        # every field the kind reads is written
        written = {line.split("=", 1)[0]
                   for line in text.split("[scenario]\n", 1)[1].splitlines()}
        assert written == {key for key, f in casefile._SCENARIO.items()
                           if f.name not in _FOREIGN[scenario.kind]}


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


@pytest.mark.parametrize("old, new, message", [
    ("alpha=1.0\n", "alpha=1.0 alpha=1.0\n", "3: duplicate key 'alpha'"),
    ("[edges]", "[edges", "6: unterminated section header"),
    ("[scenario]", "[comm]\n[scenario]", "15: duplicate section [comm]"),
    ("3 passive P=0.0", "3", "5: node line needs '<id> <kind> ...'"),
    ("3 passive P=0.0", "3 turbine P=0.0",
     "5: unknown node kind 'turbine' (machine|freq|passive)"),
    ("3 passive P=0.0", "3 passive Q=0.0", "5: unknown node field 'Q'"),
    ("3 passive P=0.0", "3 passive D=1.0",
     "5: node 3: passive node carries no inertia/damping"),
    ("1 2 K=1.5", "1 2", "7: edge line needs '<i> <j> K=<value>'"),
    ("1 2 l=1.0", "1 2", "10: comm line needs '<i> <j> l=<value>'"),
    ("1 2 K=1.5", "1 2 X=1.5", "7: missing field 'K'"),
    ("k3=1.0", "k4=1.0", "14: unknown gain 'k4'"),
    ("k3=1.0", "k3=1.0\nk1=0.5", "15: duplicate gain 'k1'"),
    ("onset=2.0", "onset=2.0\nt_end=30.0", "20: duplicate scenario key 't_end'"),
    ("onset=2.0", "onset=2.0 ramp=1", "19: unknown scenario key 'ramp'"),
    ("kind=step", "kind=ramp", "16: unknown scenario kind 'ramp'"),
    # a missing kind= is named at the [scenario] header
    ("kind=step\n", "", "15: [scenario] missing kind="),
    # found once the sections are read, so named at the file alone
    ("1 2 l=1.0", "1 2 l=-1.0", " communication weight (1,2) must be >= 0"),
    ("k2=2.0\n", "", " [gains] missing ['k2']"),
], ids=["node-key", "header", "section", "node-line", "node-kind", "node-field",
        "node", "edge-line", "comm-line", "edge-field", "gain", "gain-twice",
        "scenario-key-twice", "scenario-key", "scenario-kind", "kind-missing",
        "comm-weight", "gains-missing"])
def test_format_error_names_the_file_and_its_line(old, new, message):
    assert old in GOOD
    with pytest.raises(CaseFormatError) as err:
        loads_case(GOOD.replace(old, new, 1), path="bad.case")
    assert str(err.value) == f"bad.case:{message}"


def test_missing_nodes_section_is_named():
    with pytest.raises(CaseFormatError, match=r"^bad\.case: missing \[nodes\] section$"):
        loads_case("[edges]\n1 2 K=1.0\n", path="bad.case")


def test_unknown_bundled_case():
    with pytest.raises(FileNotFoundError, match="no bundled case named 'nope'"):
        bundled_case_path("nope")
