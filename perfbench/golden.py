"""Record the sha256 of every workload output for a range of seeds.

    python3 perfbench/golden.py FIRST_SEED LAST_SEED

Run from the repository root on the commit whose outputs are the reference.
The hashes go to golden.json, next to this file; run.py then requires
byte-identical output for those seeds, because a speed-up that changes an
output byte does not count.
"""

import hashlib
import json
import sys

from run import GOLDEN, Run
from workloads import WORKLOADS


def main(first: int, last: int) -> int:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    for name, workload in sorted(WORKLOADS.items()):
        for seed in range(first, last + 1):
            run = Run(workload, seed)
            run.validate()
            run.plain_pass()
            if run.failures:
                print(f"{name} seed {seed}: {run.failures}", file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(seed)] = [
                hashlib.sha256((run.dir / f"out{i}.json").read_bytes()).hexdigest()
                for i in range(len(run.paths))]
            print(f"{name} seed {seed}: recorded", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
