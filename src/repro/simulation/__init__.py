"""Traffic simulation substrate.

The paper evaluates with ns-2; we provide two in-repo backends with the
same regulator/MUX semantics (see DESIGN.md, substitution table):

* a **discrete-event simulator** (:mod:`repro.simulation.engine` and the
  component modules) with exact packet semantics -- token-bucket
  regulators, staggered vacation regulators, work-conserving
  multiplexers with FIFO/priority disciplines, multi-hop host chains;
* a **fluid backend** (:mod:`repro.simulation.fluid`) that rasterises
  traffic onto a uniform time grid and pushes cumulative curves through
  vectorised NumPy kernels -- orders of magnitude faster for the
  parameter sweeps, cross-validated against the DES in the test suite.

Both backends consume the same :class:`~repro.simulation.flow.PacketTrace`
inputs, so any scenario can be run on either and compared.

The DES ships two component engines: the **batched** engine
(:mod:`repro.simulation.batched`: window-batched vacation service,
commit-on-receive MUX drains, and event-free array fast paths for
primed adversarial hosts -- the only engine scenarios run on) and the
**legacy** per-packet event chain (``engine="legacy"``, kept only as
the test oracle of the equivalence suite).
"""

from repro.simulation.batched import (
    BatchMuxServer,
    BatchVacationComponent,
    vacation_departures,
)
from repro.simulation.chain import ChainResult, simulate_regulated_chain
from repro.simulation.engine import Simulator
from repro.simulation.flow import (
    AudioSource,
    CBRSource,
    OnOffSource,
    PacketTrace,
    PoissonSource,
    TrafficSource,
    VBRVideoSource,
)
from repro.simulation.fluid import (
    FluidChainResult,
    fluid_mux,
    fluid_token_bucket,
    fluid_vacation_regulator,
    simulate_fluid_host,
    simulate_fluid_chain,
)
from repro.simulation.host_sim import HostResult, simulate_regulated_host
from repro.simulation.loss import LossAccountant, LossyLink
from repro.simulation.tree_sim import TreeSimResult, simulate_multicast_tree
from repro.simulation.measures import DelayRecorder, DelayStats
from repro.simulation.mux_sim import MuxServer
from repro.simulation.packet import Packet
from repro.simulation.regulator_sim import TokenBucketComponent, VacationComponent

__all__ = [
    "Simulator",
    "Packet",
    "TrafficSource",
    "PacketTrace",
    "CBRSource",
    "AudioSource",
    "VBRVideoSource",
    "OnOffSource",
    "PoissonSource",
    "TokenBucketComponent",
    "VacationComponent",
    "BatchVacationComponent",
    "BatchMuxServer",
    "vacation_departures",
    "MuxServer",
    "DelayRecorder",
    "DelayStats",
    "HostResult",
    "simulate_regulated_host",
    "LossyLink",
    "LossAccountant",
    "TreeSimResult",
    "simulate_multicast_tree",
    "ChainResult",
    "simulate_regulated_chain",
    "fluid_token_bucket",
    "fluid_vacation_regulator",
    "fluid_mux",
    "simulate_fluid_host",
    "simulate_fluid_chain",
    "FluidChainResult",
]
