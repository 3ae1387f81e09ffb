"""KeyState: interprocedural typestate verification of the
mitigation-API lifecycle.

The paper's mitigations are *protocols*, not single calls — a key is
only protected if ``rsa_memory_align()`` runs after load and before
serving, forked children ``drop_mont(clear=True)`` before freeing COW
views, and key files opened with ``O_NOCACHE`` are evicted after the
read.  KeyFlow proves where bytes may flow; KeyState proves the calls
happen in the right *order*:

* :mod:`repro.analysis.keystate.automata` — the protocol DFAs,
  declared as data and shared with KeySan's runtime monitor;
* :mod:`repro.analysis.keystate.engine` — the flow-sensitive,
  interprocedural typestate checker over the shared
  :mod:`repro.analysis.ir` representation;
* :mod:`repro.analysis.keystate.findings` — findings with witness
  paths, and the deterministic report (text/JSON/SARIF).

Its reviewed baseline, ``keystate/baseline.json``, is gated by the
``python -m repro analyze --layers keystate`` CLI.
"""

from repro.analysis.keystate.automata import (
    AUTOMATA,
    Automaton,
    EventPattern,
    Obligation,
    Transition,
    automata_by_name,
)
from repro.analysis.keystate.engine import KeyStateConfig, analyze
from repro.analysis.keystate.findings import (
    Finding,
    KeyStateReport,
    WitnessStep,
)

__all__ = [
    "AUTOMATA",
    "Automaton",
    "EventPattern",
    "Finding",
    "KeyStateConfig",
    "KeyStateReport",
    "Obligation",
    "Transition",
    "WitnessStep",
    "analyze",
    "automata_by_name",
]
