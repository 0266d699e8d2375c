"""The evented discrete-event simulator, kept as a test oracle.

Production runs every DES cell as closed-form passes
(:mod:`repro.simulation.batched`) with no event loop.  This package
holds the evented engine and components those passes are checked
against: :class:`Simulator` (a heap of ``(time, priority, sequence)``
events), :class:`Packet`, the :class:`TokenBucketComponent`, the
window-batched :class:`BatchVacationComponent` and FIFO
:class:`BatchMuxServer`, and the :class:`DelayRecorder` sink.
``tests/des_oracle.py`` wires them into the reference pipelines of the
equivalence suites and the DES benchmark floors.
"""

from tests.evented.batched import BatchMuxServer, BatchVacationComponent
from tests.evented.engine import Simulator
from tests.evented.measures import DelayRecorder
from tests.evented.packet import Packet
from tests.evented.regulator_sim import TokenBucketComponent

__all__ = [
    "Simulator",
    "Packet",
    "TokenBucketComponent",
    "BatchVacationComponent",
    "BatchMuxServer",
    "DelayRecorder",
]
