"""reprotaint: interprocedural secret-flow analysis (R017-R021).

PR 9 made the detector's security rest on key material — the deployment
secret, per-tenant HMAC keys, session nonces — and the paper's threat
model (ICDCS'20 §III) assumes the attacker reads *everything* the
verifier emits.  One careless ``print(payload)``, one ``tag ==
expected``, one nonce pickled into a pool payload quietly re-opens the
replay hole the commitment ledger closed.  This package machine-checks
secret hygiene the same way determinism (R001-R011) and concurrency
safety (R012-R016) already are:

* a config-independent per-function ``TaintInfo`` (value expressions
  of assignments, returns, calls, raises, asserts and ``==``
  comparisons) recorded by the one fact pass in
  :mod:`repro.analysis.graph.summarize` and cached with the module
  summaries;
* a :class:`~.model.TaintModel` that seeds taint from the configured
  sources (``[tool.reprolint.taint]``), runs a per-function dataflow,
  propagates return levels over the call graph on
  :func:`~repro.analysis.graph.callgraph.propagate` (no round bound),
  and reconstructs a ``file:line`` flow chain for every tainted value;
* five whole-program rules (:mod:`.rules`): R017 secret reaches an
  output sink, R018 secret in an exception/assert message, R019
  secret crosses the pickle boundary, R020 non-constant-time compare
  of tag/nonce material, R021 secret-bearing dataclass field without
  ``repr=False``.
"""
