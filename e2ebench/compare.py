#!/usr/bin/env python3
"""Compare benchmark records written to e2ebench/out/.

    python3 e2ebench/compare.py BASE.json NEW.json

Refuses (exit 2) to compare records of different workloads, trace modes
or policies: the kernel dispatch (OMEN_SIMD path), the thread policy and
nproc must match, because the same code runs at very different speeds
under different policies. Otherwise prints each metric of both records
and the ratio NEW / BASE.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    pb, pn = base["provenance"], new["provenance"]
    for key in ("workload", "trace", "policy", "nproc"):
        if pb.get(key) != pn.get(key):
            print(
                f"refusing to compare: {key} differs ({pb.get(key)!r} vs {pn.get(key)!r})",
                file=sys.stderr,
            )
            return 2
    print(f"workload {pb['workload']}, policy {pb['policy']}")
    print(f"base {pb['commit']} seed {pb['seed']}")
    print(f"new  {pn['commit']} seed {pn['seed']}")
    mb, mn = base["result"]["metrics"], new["result"]["metrics"]
    for name, m in mb.items():
        if name not in mn:
            continue
        b, n = m["value"], mn[name]["value"]
        ratio = f"{n / b:8.3f}" if b else "       -"
        print(f"{name:<24} {b:>16.6g} {n:>16.6g} {ratio}  {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
