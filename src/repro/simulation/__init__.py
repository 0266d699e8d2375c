"""Traffic simulation substrate.

The paper evaluates with ns-2, which this repository does not use; two
in-repo backends with the same regulator/MUX semantics stand in for it:

* a **packet DES** (:mod:`repro.simulation.batched`) with exact packet
  semantics -- token-bucket regulators, staggered vacation regulators,
  work-conserving multiplexers with adversarial/FIFO/priority
  disciplines, multi-hop host chains and whole trees;
* a **fluid backend** (:mod:`repro.simulation.fluid`) that rasterises
  traffic onto a uniform time grid and pushes cumulative curves through
  vectorised NumPy kernels -- orders of magnitude faster for the
  parameter sweeps, cross-validated against the DES in the test suite.

Both backends consume the same :class:`~repro.simulation.flow.PacketTrace`
inputs, so any scenario can be run on either and compared.

Every flow's trace is known before a cell runs, so the DES has one
pipeline and no event loop: adversarial, FIFO and priority hosts,
chains and trees all run closed-form passes, whose tie order the
:mod:`repro.simulation.batched` docstring defines.  The evented engine
those passes are checked against is a test oracle (``tests/evented``).
"""

from repro.simulation.batched import vacation_departures
from repro.simulation.chain import ChainResult, simulate_regulated_chain
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
from repro.simulation.tree_sim import TreeSimResult, simulate_multicast_tree
from repro.simulation.measures import DelayStats

__all__ = [
    "TrafficSource",
    "PacketTrace",
    "CBRSource",
    "AudioSource",
    "VBRVideoSource",
    "OnOffSource",
    "PoissonSource",
    "vacation_departures",
    "DelayStats",
    "HostResult",
    "simulate_regulated_host",
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
