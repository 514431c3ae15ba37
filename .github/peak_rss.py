"""Run a Python command as a child process and fail if its peak RSS is above a bound.

Usage: python .github/peak_rss.py BOUND_MB ARG...

Runs ``python ARG...`` with this interpreter, prints the child's peak RSS
(``getrusage`` of the children, in MB) and exits 1 if it is above BOUND_MB,
or with the child's status if the child failed.
"""

import resource
import subprocess
import sys

bound = float(sys.argv[1])
status = subprocess.run([sys.executable, *sys.argv[2:]]).returncode
if status:
    sys.exit(status)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {peak:.1f} MB")
sys.exit(peak > bound)
