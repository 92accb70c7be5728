"""repro — reproduction of Blin & Fraigniaud, ICDCS 2015.

*Space-Optimal Time-Efficient Silent Self-Stabilizing Constructions of
Constrained Spanning Trees.*

The package is organised as the paper is:

* :mod:`repro.graphs`   — networks of the state model (Section II-A);
* :mod:`repro.runtime`  — registers, schedulers, execution engine (II-A);
* :mod:`repro.labeling` — proof-labeling schemes: spanning-tree, malleable
  (Lemma 4.1), NCA (+ its PLS, Lemma 5.1), MST (Section VI), FR-tree
  (Lemma 8.1);
* :mod:`repro.core`     — the PLS-guided framework: Algorithms 1-4, the
  Section IV switch protocol, and the BFS / MST / MDST instantiations;
* :mod:`repro.baselines` — the comparison algorithms of Section I-C/D;
* :mod:`repro.analysis` — tables and fits for the campaign reports;
* :mod:`repro.experiments` — campaigns that regenerate the paper's
  tables and check its claims (``python -m repro campaign``).

Quickstart::

    from repro.graphs import random_connected_graph
    from repro.core.mst import SilentSelfStabilizingMST
    from repro.runtime import Simulator, random_configuration

    net = random_connected_graph(16, weighted=True, seed=1)
    proto = SilentSelfStabilizingMST()
    sim = Simulator(net, proto,
                    config=random_configuration(net, proto, seed=2))
    result = sim.run(max_rounds=200_000)
    assert result.silent and proto.is_legal(net, sim.config)
"""

__version__ = "1.0.0"
