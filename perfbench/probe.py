"""Set-up probe, run in a fresh interpreter by ``run.py``.

``python3 perfbench/probe.py <workload> '<repro argv as JSON>'`` parses
the workload's CLI arguments, builds its inputs and compiles its plan,
then prints ``ready``: the parent times exec-to-``ready`` as ``setup_s``.
"""

import json
import sys

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]].setup(json.loads(sys.argv[2]))
print("ready", flush=True)
