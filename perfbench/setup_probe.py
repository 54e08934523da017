"""Time one workload set-up in a fresh interpreter and print it in
reference seconds (see calibrate.py).

    python3 perfbench/setup_probe.py WORKLOAD SEED

The orthoql import is part of the timed set-up.
"""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from calibrate import timed_in_reference  # noqa: E402 - after the path set-up
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]()
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as workdir:
        print(timed_in_reference(lambda: workload.setup(int(sys.argv[2]), workdir)))
