"""Oracle: taint return levels on the call-graph solver vs. the old loop.

:class:`~repro.analysis.taint.model.TaintModel` propagates return levels
on ``callgraph.propagate``: one seed evaluation per function, then a
caller is re-evaluated whenever a callee returns taint.  The reference
here is the round-robin loop that solver replaced — every function
re-evaluated per round in sorted order until no return level rises, then
one closing env sweep — without its old round and pass bounds.  Both
must agree on ``returns`` and ``envs``, levels *and* flow chains, on
every taint fixture tree (``test_taint_rules`` lints through
:func:`assert_matches_oracle`) and on this repository's own ``src/``.
"""

from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.config import load_lint_config
from repro.analysis.taint.model import CLEAN_LEVEL, TaintModel, taint_model

REPO_ROOT = Path(__file__).resolve().parents[2]


class RoundRobinModel(TaintModel):
    """The reference schedule: full rounds until nothing rises."""

    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            for node_id in self._node_ids:
                changed |= self._evaluate(node_id)
        self.envs = {node_id: self._function_env(node_id) for node_id in self._node_ids}


def assert_matches_oracle(graph) -> TaintModel:
    model = taint_model(graph)
    reference = RoundRobinModel(graph)
    assert model.returns == reference.returns
    assert model.envs == reference.envs
    return model


def test_src_tree_matches_round_robin_reference():
    result = lint_paths(
        [REPO_ROOT / "src"],
        relative_to=REPO_ROOT,
        graph=True,
        config=load_lint_config(REPO_ROOT),
    )
    model = assert_matches_oracle(result.graph)
    # Non-vacuous: the protocol layer really returns key material.
    assert any(value.level > CLEAN_LEVEL for value in model.returns.values())
