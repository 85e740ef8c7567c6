"""Discrete-event simulation kernel.

This package provides the simulation substrate used by every other part
of the library: a priority-queue event loop (:class:`~repro.sim.engine.Simulation`),
generator-based processes (:class:`~repro.sim.process.Process`), one-shot
events and timeouts (:mod:`repro.sim.events`) and deterministic named
random streams (:mod:`repro.sim.rng`).

The design follows the classic process-interaction style (as popularised
by SimPy): a *process* is a Python generator that ``yield``\\ s events; the
engine resumes the generator when the yielded event fires.  All state is
owned by a single :class:`Simulation` instance, so independent
simulations never interfere and runs are reproducible given a seed.

Example
-------
>>> from repro.sim import Simulation
>>> sim = Simulation()
>>> log = []
>>> def worker(sim, name):
...     yield sim.timeout(5)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a"))
>>> sim.run()
>>> log
[(5.0, 'a')]
"""

from repro import _lazy

_EXPORTS = {
    "AllOf": ".events",
    "AnyOf": ".events",
    "Event": ".events",
    "Interrupt": ".process",
    "KERNELS": ".vector",
    "Process": ".process",
    "RandomStreams": ".rng",
    "ReusableTimeout": ".events",
    "Simulation": ".engine",
    "StopSimulation": ".engine",
    "Timeout": ".events",
    "UnsupportedKernelFeature": ".vector",
    "VectorSimulation": ".vector",
    "make_simulation": ".vector",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
