"""Record the reference data the registry and trace oracles compare with.

Run once, from the root of a checkout, at the commit the references are
meant to describe (they were recorded at the commit that introduced the
benchmark); the files go to ``perfbench/data/``:

    python3 perfbench/record.py

* ``registry_status.json``: each claim's ``--json`` status.
* ``trace_digests.json``: the digest of every trace of the ``trace``
  workload at the default seed.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    workloads.DATA.mkdir(exist_ok=True)
    statuses = {}
    for op in workloads.build_registry(workloads.DEFAULT_SEED, statuses={}).ops:
        statuses[op.tracked] = json.loads(op.run())[0]["status"]
    digests = {}
    for op in workloads.build_trace(workloads.DEFAULT_SEED, digests={}).ops:
        digests[f"{op.family}/{op.tracked}"] = workloads.trace_digest(op.run())
    for name, data in (("registry_status.json", statuses), ("trace_digests.json", digests)):
        text = json.dumps(dict(sorted(data.items())), indent=1) + "\n"
        (workloads.DATA / name).write_text(text, encoding="utf-8")
        print(f"wrote {len(data)} entries to {workloads.DATA / name}")


if __name__ == "__main__":
    main()
