"""Experiment definitions, orchestration, reporting and pass/fail evaluation:
``galton`` (the pegboard benchmark and its rate search), ``login`` (the
login service-topology study) and ``report`` (run reports, exports and
regression metrics).  Nothing is re-exported: import names from these
modules."""
