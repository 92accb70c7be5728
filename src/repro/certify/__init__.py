"""Local certification: proof-labeling verifiers over register contents.

The paper's silence and space claims rest on *locally checkable*
certificates (Section II-C): every node verifies a predicate over its own
register and its neighbors' registers, and a configuration is legitimate
iff every node accepts.  This package makes that operational for the
whole repository:

* :mod:`repro.certify.schemes` — per-task certifiers (SST, BFS, NCA,
  MST, MDST): a certificate *assigner* that decorates a legitimate
  configuration, and a pure ``verify(net, node, state, nbr_states)``
  predicate reading register contents only (locality is mechanically
  enforced — reading a non-neighbor raises);
* :mod:`repro.certify.oracle` — the certificate-backed oracle layer: a
  register-carried subtree digest (:class:`DigestLayer`) plus a
  digest-keyed memo (:class:`CertifiedOracle`) that turn the guided
  protocols' root-side detector into a rule whose effective read-set is
  the 1-hop neighborhood, so they run on the incremental engine's
  ordinary 1-hop invalidation;
* :mod:`repro.certify.space` — bits-per-node accounting of every
  certified task against the paper's O(log n) / O(log^2 n) bounds;
* :mod:`repro.certify.modelcheck` — an exhaustive small-n model checker
  (every daemon choice) proving closure + convergence and hunting for
  legitimate-looking configurations a corrupted certificate could fake;
* :mod:`repro.certify.cli` — ``python -m repro certify``
  (check / space / modelcheck).

Imports are kept lazy here: :mod:`repro.core.tasks` imports the oracle
layer from this package, while the schemes import the tasks — a package
``__init__`` that imported both eagerly would be a cycle.
"""

from __future__ import annotations

__all__ = [
    "CertifiedOracle",
    "DigestLayer",
    "CERTIFIERS",
    "get_certifier",
]


def __getattr__(name: str):
    if name in ("CertifiedOracle", "DigestLayer"):
        from repro.certify import oracle
        return getattr(oracle, name)
    if name in ("CERTIFIERS", "get_certifier"):
        from repro.certify import schemes
        return getattr(schemes, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
