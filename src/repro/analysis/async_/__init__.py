"""reproasync: static concurrency-safety analysis (R012-R016).

The service layer's load-bearing contract — "a registered task may only
suspend through scheduler primitives" — plus lock ordering, blocking
calls, bounded waits, and cross-task shared state are all properties of
the *call graph*, not of any single module.  This package reads the
concurrency facts (``AsyncInfo``) that the one fact pass in
:mod:`repro.analysis.graph.summarize` records per function, resolves
them into lock identities, a fixed-point lock-set dataflow and task
reachability over the program graph (:mod:`.lockset`), and runs the
five whole-program rules R012-R016 (:mod:`.rules`).
"""
