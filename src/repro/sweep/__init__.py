"""Grid sweeps over the scenario registry with a persistent result store.

The paper is ultimately an evaluation artifact — latency and area tables,
detection matrices — and regenerating those numbers should never mean
hand-running individual experiments.  This package turns "run the grid" into
infrastructure on top of the :class:`repro.api.Experiment` façade:

* :mod:`repro.sweep.spec` — :class:`SweepSpec`, a declarative grid over
  scenario × placement × seed × protection × workload/attack axes with
  include/exclude filters; it expands to :class:`SweepPoint`\\ s, each with a
  stable identity and a content hash covering the *resolved* scenario
  definition,
* :mod:`repro.sweep.store` — :class:`ResultStore`, a content-addressed
  on-disk store (append-only JSONL plus a manifest) keyed by point hash and
  code fingerprint, so interrupted sweeps resume instead of recomputing and
  stale results are invalidated when the code or a scenario definition
  changes,
* :mod:`repro.sweep.engine` — :class:`SweepRunner`, which executes only the
  missing points (serially, or in one process pool per run), stores each
  result as it arrives, and reports computed/cached/skipped point sets,
* :mod:`repro.sweep.paper` — one-command regeneration of every paper
  table/figure from the store (``python -m repro paper``), rendered through
  :mod:`repro.analysis.report` and :mod:`repro.analysis.compare`.

The CLI surface is ``python -m repro sweep run`` / ``sweep gc`` /
``paper``; see ``docs/reproducing-the-paper.md`` for the table-by-table map.
"""

from repro.sweep.spec import SweepPoint, SweepSpec, point_key, spec_hash
from repro.sweep.store import ResultStore, code_fingerprint
from repro.sweep.engine import SweepReport, SweepRunner
from repro.sweep.paper import PaperReport, paper_sweep_spec, regenerate_paper

__all__ = [
    "SweepPoint",
    "SweepSpec",
    "point_key",
    "spec_hash",
    "ResultStore",
    "code_fingerprint",
    "SweepReport",
    "SweepRunner",
    "PaperReport",
    "paper_sweep_spec",
    "regenerate_paper",
]
