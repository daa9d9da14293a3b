"""Netlist checks: each malformed netlist raises InvalidModelError with a
message that names what is wrong, at build time or when the transient's
MNA walk reads it."""
import re

import pytest

from tsvqvco.devices import VaractorModel
from tsvqvco.engine import SimConfig, small_signal, transient
from tsvqvco.errors import InvalidModelError
from tsvqvco.netlist import Netlist

CFG = SimConfig(dt_s=1e-12, t_stop_s=1e-10)
VARACTOR = VaractorModel(c_min=1e-12, c_max=3e-12, v_lo=0.0, v_hi=0.7)


def rc_netlist() -> Netlist:
    net = Netlist()
    net.add_resistor("a", "gnd", 1e3, label="r1")
    net.add_capacitor("a", "gnd", 1e-12, label="c1")
    return net


def assert_invalid(net: Netlist, message: str) -> None:
    """transient() rejects the netlist with message."""
    with pytest.raises(InvalidModelError, match=f"^{re.escape(message)}$"):
        transient(net, CFG)


def test_well_formed_netlist_validates():
    transient(rc_netlist(), CFG)


def test_floating_node():
    net = rc_netlist()
    net.node_names += ["island", "atoll"]
    assert_invalid(net, "nodes used by no element: ['atoll', 'island']")


@pytest.mark.parametrize("add", [
    lambda net: net.add_resistor("a", "gnd", 2e3, label="r1"),
    lambda net: net.add_capacitor("a", "gnd", 1e-12, label="r1"),
    lambda net: net.add_vsource("a", "gnd", 1.0, label="c1"),
], ids=["same_kind", "other_kind", "source"])
def test_duplicate_label(add):
    net = rc_netlist()
    with pytest.raises(InvalidModelError,
                       match=r"^duplicate element label '(r1|c1)'$"):
        add(net)
    assert len(net.elements) == 2


def test_default_label_collision():
    # an explicit label may take the name a later default would get
    net = Netlist()
    net.add_resistor("a", "gnd", 1e3, label="r1")
    with pytest.raises(InvalidModelError,
                       match=r"^duplicate element label 'r1'$"):
        net.add_resistor("a", "b", 1e3)


def test_dotted_label_is_rejected():
    """A coupled set labelled x names its winding branches x.w0 and x.w1;
    an inductor labelled x.w0 would share a branch name and lose a trace."""
    net = Netlist()
    net.add_coupled_inductors([("a", "gnd"), ("b", "gnd")],
                              [[1e-9, 0.0], [0.0, 1e-9]], [0.1, 0.1],
                              label="x")
    with pytest.raises(InvalidModelError, match=re.escape(
            "element label 'x.w0' must be a string without '.'")):
        net.add_inductor("c", "gnd", 1e-9, label="x.w0")
    assert len(net.elements) == 1


@pytest.mark.parametrize("add, message", [
    (lambda net: net.add_resistor("c", "d", 1e3, label="r1"),
     "duplicate element label 'r1'"),
    (lambda net: net.add_varactor("c", "d", "e", "gnd", VARACTOR, label="c1"),
     "duplicate element label 'c1'"),
    (lambda net: net.add_inductor("c", "d", 1e-9, label="l.1"),
     "element label 'l.1' must be a string without '.'"),
    (lambda net: net.add_vccs("c", "d", "e", "", 1e-3),
     "node names must be non-empty strings"),
    (lambda net: net.add_coupled_inductors(
        [("c", "d"), ("e", 7)], [[1e-9, 0.0], [0.0, 1e-9]], [0.1, 0.1]),
     "node names must be non-empty strings"),
], ids=["duplicate_label", "duplicate_label_4_terminals", "dotted_label",
        "empty_node_name", "non_string_node_name"])
def test_rejected_add_registers_no_node(add, message):
    """A rejected add leaves the node list as it was, so the netlist
    still runs."""
    net = rc_netlist()
    with pytest.raises(InvalidModelError, match=f"^{re.escape(message)}$"):
        add(net)
    assert net.node_names == ["a"]
    transient(net, CFG)


def test_no_ground_connection():
    net = Netlist()
    net.add_resistor("a", "b", 1e3)
    net.add_capacitor("a", "b", 1e-12)
    assert_invalid(net, "no element is connected to ground")


def test_initial_condition_on_unknown_node():
    net = rc_netlist()
    net.initial_voltages["ghost"] = 0.5
    assert_invalid(net, "initial condition on unknown node 'ghost'")


def test_initial_voltage_on_a_typo_is_an_unknown_node():
    """set_initial_voltage registers no node, so a misspelt name is
    reported as what it is, not as a node that no element uses."""
    net = rc_netlist()
    net.set_initial_voltage("typo", 0.1)
    assert net.node_names == ["a"]
    assert_invalid(net, "initial condition on unknown node 'typo'")


def test_empty_netlist():
    assert_invalid(Netlist(), "netlist has no elements")


@pytest.mark.parametrize("run", [lambda net: transient(net, CFG), small_signal],
                         ids=["transient", "small_signal"])
def test_netlist_with_no_node_besides_ground(run):
    """Every element on ground leaves no node to solve for: both entry
    points refuse the netlist by name, not with a numpy error."""
    net = Netlist()
    net.add_resistor("gnd", "gnd", 1e3)
    with pytest.raises(InvalidModelError,
                       match="^netlist has no node besides ground$"):
        run(net)


def test_initial_condition_on_ground():
    with pytest.raises(InvalidModelError, match=r"^ground is fixed at 0 V$"):
        rc_netlist().set_initial_voltage("gnd", 0.1)
