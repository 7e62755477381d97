"""Set-up a user pays before the first integration step.

    python3 perfbench/setup_probe.py <config.yaml>

Interpreter start, imports (as `lindnet` makes them), YAML load, preset
resolution (at the first point of a sweep) and generator build. run.py
times this whole process.
"""

import sys

import yaml

import lindnet.cli  # noqa: F401  (the import cost is part of set-up)
from lindnet.dynamics import LindbladGenerator
from lindnet.model import preset

with open(sys.argv[1], encoding="utf-8") as fh:
    cfg = yaml.safe_load(fh)
params = dict(cfg["params"])
if "sweep" in cfg:  # the sweep's first point
    params[cfg["sweep"]["path"].split(".", 1)[1]] = cfg["sweep"]["values"][0]
run = preset(cfg["preset"], **params)
LindbladGenerator.from_network(run.spec)
