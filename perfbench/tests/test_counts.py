"""Count metrics of the traced pass repeat exactly.

Later changes may rest a claim on a count only when the count repeats, so
two traced passes of the same code must give identical counts.

    python -m pytest -q perfbench/tests     (from the root of a checkout)
"""

import pytest

from run import PER_LAYER_UNITS, Operations, layer_metrics, run_pass
from workloads import DEFAULT_SEED, WORKLOADS, invocations

COUNT_METRICS = [k for k, unit in PER_LAYER_UNITS.items()
                 if unit in ("count", "ratio")]


def traced_counts(workload, out_dir):
    invs = invocations(workload, DEFAULT_SEED)
    ops = Operations()
    run_pass(workload, invs, out_dir, ops, exact=True, traced=True)
    assert ops.failures == []
    layers = layer_metrics(invs, out_dir, overhead_s=0.0)
    return {k: layers[k] for k in COUNT_METRICS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = traced_counts(workload, tmp_path)
    second = traced_counts(workload, tmp_path)
    assert first == second
    assert first["cli.csv_rows"] > 0 and first["coefficients.trace_calls"] > 0
