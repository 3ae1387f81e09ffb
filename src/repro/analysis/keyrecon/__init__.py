"""KeyRecon: static reconstructability analysis of derived key fragments.

The sixth static layer.  keylint, KeyFlow, KeyState, and KeyCount all
treat the key as literal bytes: a program point is dangerous when a
*copy* of d/p/q/PEM may be resident there.  KeyRecon asks the question
a structural attacker asks instead: **which program points hold enough
derived material to rebuild the key**, given the public half — because
any single CRT factor divides n, either CRT exponent recovers a factor
by Fermat's little theorem, a Montgomery context stores its modulus
verbatim, and a DER/PEM blob embeds everything.

Its domain is a *derivability lattice*: every abstract location
carries a fragment set ({p}, {dmp1, mont_p}, …), propagated through
derivation edges (keygen, CRT precompute, Montgomery conversion,
serialization).  The fragment sets ride beside KeyFlow's taint in one
key-material fixpoint over the shared IR
(:mod:`repro.analysis.ir.dataflow`); :func:`analyze` projects the
fragments out of it and judges program points against reconstruction
rules.  The headline obligations, enforced in CI:

* **dynamic ⊆ static**: every key the structural attackers in
  :mod:`repro.attacks.predict` rebuild from a memory dump maps to a
  KeyRecon-flagged program point, at all six ProtectionLevels (with
  derivation-edge ablation teeth);
* the **alignment tension** result: ``rsa_memory_align`` — the paper's
  own mitigation — concentrates all six CRT parts into one contiguous
  region, flagged as ``fragment-concentration`` because it *helps*
  this attacker even as it defeats the pattern scanner.

Entry points: :func:`analyze` (the report),
:data:`~repro.analysis.keyrecon.config.DEFAULT_CONFIG`, and the
``python -m repro analyze --layers keyrecon`` CLI.
"""

from repro.analysis.keyrecon.config import (
    DEFAULT_CONFIG,
    FRAGMENTS,
    PUBLIC_FRAGMENTS,
    Derivation,
    KeyReconConfig,
)
from repro.analysis.keyrecon.engine import analyze
from repro.analysis.keyrecon.findings import Finding, KeyReconReport

__all__ = [
    "DEFAULT_CONFIG",
    "Derivation",
    "FRAGMENTS",
    "Finding",
    "KeyReconConfig",
    "KeyReconReport",
    "PUBLIC_FRAGMENTS",
    "analyze",
]
