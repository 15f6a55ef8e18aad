"""Record the check IDs of every suite at the base seed.

    python3 perfbench/record_ids.py

Writes perfbench/check_ids.json, which the benchmark's output gate
compares against.  Run it only when a change means to alter the check
list, and say so in that change.
"""

import json
import sys

from run import BASE_SEED, HERE, SRC

sys.path.insert(0, str(SRC))
from splitcone import cli  # noqa: E402
from splitcone.suites import SUITE_NAMES, SuiteConfig  # noqa: E402

ids = {s: sorted(c.check_id for c in cli.run(SuiteConfig(suite=s, seed=BASE_SEED)).checks)
       for s in SUITE_NAMES}
(HERE / "check_ids.json").write_text(json.dumps(ids, indent=1) + "\n")
print(f"{sum(map(len, ids.values()))} check IDs in {len(ids)} suites")
