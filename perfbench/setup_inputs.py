"""Set-up of one workload in a fresh interpreter.

    python3 perfbench/setup_inputs.py <workload> <inputs as JSON> <workdir>

Imports bsylab from the checkout's src/ and builds the files the workload
reads.  run.py times this whole process, so set-up time includes the
interpreter start and the package import.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv):
    name, inputs, workdir = argv[1], json.loads(argv[2]), Path(argv[3])
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads
    workloads.WORKLOADS[name](inputs, workdir).setup()


if __name__ == "__main__":
    main(sys.argv)
