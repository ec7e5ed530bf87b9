#!/usr/bin/env python3
"""Print the sha256 digest of every numeric CSV the command line writes.

Runs `odlab run` (mc, dee, gmmut) and `odlab compare` on scenarios 1-3 at
desk scale, and with --paper at paper scale as well, into a temporary
directory.  It then prints one "sha256  relative/path" line per CSV,
sorted by path: 168 lines at desk scale and 168 more at paper scale.  The
JSON files are left out, as they hold wall-clock times.  Two source trees
write the same numbers when their listings diff empty.

Usage:
    python3 scripts/output_digests.py > desk.txt
    python3 scripts/output_digests.py --paper > all.txt
"""

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from odlab.cli import main as odlab_main

SCENARIOS = (1, 2, 3)
METHODS = ("mc", "dee", "gmmut")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paper", action="store_true",
                    help="also run every case at paper scale")
    args = ap.parse_args(argv)
    scales = [("desk", [])] + ([("paper", ["--paper-scale"])] if args.paper else [])
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for scale, flags in scales:
            for n in SCENARIOS:
                common = ["--scenario", str(n), "--out", str(root / scale), *flags]
                commands = [["run", "--method", m, *common] for m in METHODS]
                for command in commands + [["compare", *common]]:
                    # the command line's own report goes to stderr
                    with contextlib.redirect_stdout(sys.stderr):
                        status = odlab_main(command)
                    if status:
                        return status
        for path in sorted(root.rglob("*.csv")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
