"""Discrete-event simulation kernel.

A small, self-contained process-based DES in the style of SimPy: an
:class:`Engine` owns virtual time and an event heap; :class:`Process`
coroutines (plain Python generators) ``yield`` events to wait on them.

Example
-------
>>> from repro.sim import Engine
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> env = Engine()
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.sim.events import (
    Event,
    Timeout,
    Condition,
    AllOf,
    AnyOf,
    Interrupt,
)
from repro.sim.process import Process
from repro.sim.engine import Engine

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Process",
]
