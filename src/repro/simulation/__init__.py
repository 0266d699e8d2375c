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

The DES has one pipeline: adversarial, FIFO and priority hosts, chains
and trees all run event-free closed-form passes
(:mod:`repro.simulation.batched`).  The evented components
(window-batched vacation service, token buckets and the FIFO
:class:`BatchMuxServer`) remain for pipelines whose arrivals are not
known in advance, such as :class:`LossyLink` chains.
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
from repro.simulation.packet import Packet
from repro.simulation.regulator_sim import TokenBucketComponent

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
    "BatchVacationComponent",
    "BatchMuxServer",
    "vacation_departures",
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
