"""Dynamic-scheduling ablation (Section VII).

"We would like to study the effects of schedulers dynamically
adjusting assignments, in response to context-switches and changing
demands of the system."  Three schedulers on the same mix:

* static random (the paper's proxy for an over-committed VMM);
* dynamic random churn (the ``churn`` scheduling policy: threads
  re-dealt every control epoch — real churn);
* dynamic affinity healing (the ``heal`` policy: threads migrated back
  toward their VM's dominant cache).

The hypothesis the paper implies: churn costs performance through lost
cache affinity, and a dynamic policy that restores affinity recovers
most of static affinity's benefit.
"""

import pytest

from _common import emit, mean, once, run
from repro.analysis.report import format_table

INTERVAL = 60_000


@pytest.fixture(scope="module")
def data():
    return {
        "static affinity": run("mixC", policy="affinity"),
        "static random": run("mixC", policy="random"),
        "dynamic churn": run("mixC", policy="random", sched_policy="churn",
                             sched_epoch=INTERVAL),
        "dynamic affinity": run("mixC", policy="random", sched_policy="heal",
                                sched_epoch=INTERVAL),
    }


def test_ablation_dynamic(benchmark, data):
    def build():
        rows = []
        for label, result in data.items():
            vms = result.vm_metrics
            rows.append([
                label,
                mean([vm.cycles for vm in vms]),
                mean([vm.miss_rate for vm in vms]),
                mean([vm.mean_miss_latency for vm in vms]),
            ])
        return rows

    rows = once(benchmark, build)
    emit("ablation_dynamic", format_table(
        ["Scheduler", "Mean cycles", "Miss rate", "Miss latency"],
        rows, title=f"Dynamic scheduling ablation (mixC, rebalance every "
                    f"{INTERVAL} cycles)"))

    by_label = {row[0]: row for row in rows}
    # churn is the worst configuration: repeated cold caches
    assert by_label["dynamic churn"][1] >= by_label["static random"][1]
    # affinity healing beats continuous churn
    assert by_label["dynamic affinity"][1] < by_label["dynamic churn"][1]
    # and recovers most of the static-affinity benefit: it lands closer
    # to static affinity than churn does
    gap_heal = by_label["dynamic affinity"][1] - by_label["static affinity"][1]
    gap_churn = by_label["dynamic churn"][1] - by_label["static affinity"][1]
    assert gap_heal < gap_churn
