"""One set-up of a benchmark run, as its own process: import treelift from the
checkout and generate the workload's input files with ``treelift gen``.

    python3 perfbench/setup_step.py '[["gen", "--family", "petersen", "-o", "p.txt"], ...]'

The parent times this process from start to exit.  The process samples the
host's speed while it works (``calibrate.SpeedSampler``, every 10 ms) and
prints, as JSON, the mean speed and the seconds the sampler took, so that
the parent can normalize the time to ``setup_s``.
"""

import json
import statistics
import sys
from pathlib import Path

from calibrate import SpeedSampler

SAMPLE_INTERVAL_S = 0.01

with SpeedSampler(SAMPLE_INTERVAL_S) as sampler:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from treelift.cli import main

    for argv in json.loads(sys.argv[1]):
        status = main(argv)
        if status != 0:
            sys.exit(status)

print(json.dumps({"speed": statistics.fmean(sampler.speeds), "sampler_s": sampler.seconds}))
