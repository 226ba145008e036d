"""Record the expected output of every spec a benchmark seed can select.

Usage (from the root of a checkout)::

    python3 perfbench/record.py

Runs each spec of every workload's seed pool once in-process and writes
``perfbench/expected.json``: the simulated summary, power dict and the
other deterministic facts each benchmark run is checked against.
Re-record only when a change is meant to alter simulated results.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro.analysis.attribution as attribution
    from repro.runtime.executor import execute_inline

    from perfbench.harness import EXPECTED_PATH, WORKLOADS, Workload, observe, spec_key

    table = {}
    for name in WORKLOADS:
        workload = Workload(name)
        for spec in workload.all_specs():
            _, sim, result = execute_inline(spec)
            attr = attribution.attribute_metrics(result.metrics) if workload.attribute else None
            facts = observe(sim, result, attr)
            if spec.drain and not (
                result.summary["drained"] == 1.0
                and facts["packets_ejected"] == facts["packets_created"]
            ):
                raise SystemExit(f"{spec.label()} seed {spec.traffic.seed} did not drain")
            table[spec_key(spec)] = dict(facts, label=spec.label(), seed=spec.traffic.seed)
            print(f"{name} {spec.label()} seed {spec.traffic.seed}", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} specs written to {EXPECTED_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
