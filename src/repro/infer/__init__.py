"""End-to-end loop invariant inference (Fig. 3 of the paper).

``InferenceEngine(problem).run()`` runs the full workflow: trace
collection, term expansion and filtering, G-CLN training, formula
extraction, soundness filtering / specification checking, and retry
with adjusted dropout and widened sampling on failure.  It returns the
registry-wide :class:`~repro.api.solver.SolveResult`.

The runtime is staged, with one module per stage boundary:

* :mod:`repro.infer.problem` / :mod:`repro.infer.config` — problem
  definitions and pipeline knobs (Table 3 ablation switches).
* :mod:`repro.infer.schedule` — the typed retry plan: an
  :class:`~repro.infer.schedule.AttemptScheduler` expands the config
  into ordered :class:`~repro.infer.schedule.AttemptPlan` entries
  (dropout / seed / fractional interval, paper §6) and owns early
  stopping.
* :mod:`repro.infer.stages` — pure, memoized data stages
  (``collect_states`` / ``build_matrix``) over the solve's own
  :class:`~repro.sampling.cache.TraceCache`, so repeated attempts
  never recollect traces or re-evaluate term matrices for an
  interval already seen.
* :mod:`repro.infer.pipeline` — the per-attempt orchestration:
  training and extraction, then the check-and-score step
  (:func:`~repro.infer.pipeline.check_and_score`: soundness filtering
  and the solved test) that every baseline solver reuses.
* :mod:`repro.infer.runner` — batch records: the
  :class:`~repro.infer.runner.ProblemRecord` (and its wire form) that
  :meth:`repro.api.service.InvariantService.solve_many`, the batch
  runner, returns for each problem, the per-problem timeout, and
  :func:`~repro.infer.runner.summarize`.

This package is the *runtime*; the public surface is :mod:`repro.api`
(the ``Solver`` protocol, registry, and ``InvariantService``), which
wraps the engine as the ``"gcln"`` solver.
"""

from repro.infer.problem import Problem, parse_ground_truth
from repro.infer.config import InferenceConfig
from repro.infer.record import record_observations, record_problem
from repro.infer.schedule import AttemptPlan, AttemptScheduler, build_schedule
from repro.infer.pipeline import InferenceEngine
from repro.infer.runner import ProblemRecord, summarize

__all__ = [
    "Problem",
    "parse_ground_truth",
    "InferenceConfig",
    "record_observations",
    "record_problem",
    "AttemptPlan",
    "AttemptScheduler",
    "build_schedule",
    "InferenceEngine",
    "ProblemRecord",
    "summarize",
]
