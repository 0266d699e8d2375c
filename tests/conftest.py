"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.overlay.groups import MultiGroupNetwork
from repro.topology.attach import attach_hosts
from repro.topology.backbone import fig5_backbone
from repro.topology.routing import host_rtt_matrix


@pytest.fixture(scope="session")
def backbone():
    return fig5_backbone()


@pytest.fixture(scope="session")
def small_network(backbone):
    """60 hosts on the Fig-5 backbone (small but multi-domain)."""
    return attach_hosts(backbone, 60, rng=123)


@pytest.fixture(scope="session")
def small_rtt(small_network):
    return host_rtt_matrix(small_network)


@pytest.fixture(scope="session")
def small_mgn(small_network):
    return MultiGroupNetwork.fully_joined(small_network, 3, rng=123)


@pytest.fixture(scope="session")
def paper_network(backbone):
    """The paper-scale 665-host attachment (session-cached; ~0.1 s)."""
    return attach_hosts(backbone, 665, rng=2006)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="session")
def mixed_matrix():
    """Fluid hosts, chains and trees beside adversarial and FIFO DES
    cells: every group kernel and a per-cell fallback."""
    from repro.scenarios import generate_scenarios

    cells = generate_scenarios(24, seed=13, horizon=0.6)
    host = next(
        sc for sc in cells if sc.topology == "host" and sc.backend == "fluid"
    )
    cells.append(
        dataclasses.replace(
            host, name=f"{host.name}-fifo", backend="des", discipline="fifo"
        )
    )
    return cells
