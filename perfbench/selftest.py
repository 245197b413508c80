"""Self-test of the benchmark's output checks and layer checks.

    python3 perfbench/selftest.py

For each workload it runs a few ops as they are, which must all pass, then
the same ops with one output corrupted (one exponent changed, or one byte
flipped), which must give exactly one failure and so an error rate above
zero.  It also checks that a traced run with a silent layer is refused.
Exits 0 when every check holds.
"""

import json
import random
import sys

from run import BenchError, check_layers_fire, count_failures, run_ops, use_checkout_source

use_checkout_source()

import workloads  # noqa: E402  (needs the checkout's src on sys.path)

OPS_PER_WORKLOAD = 6


def corrupt(out):
    """Change one exponent or the self-dual flag; otherwise flip one byte."""
    obj = json.loads(out)
    if "exponents" in obj:
        rep, j = obj["exponents"][0]
        obj["exponents"][0] = [rep, 0 if j else 1]
        return workloads.dump(obj)
    if "selfdual" in obj:
        obj["selfdual"] = not obj["selfdual"]
        return workloads.dump(obj)
    k = len(out) // 2
    return out[:k] + chr(ord(out[k]) ^ 1) + out[k + 1 :]


def error_rate(ops):
    return count_failures(run_ops(ops, [])) / len(ops)


def main():
    for name, wl in workloads.WORKLOADS.items():
        state = wl.setup(0)
        ops = wl.round(state, random.Random(0))[:OPS_PER_WORKLOAD]
        clean = error_rate(ops)
        if clean != 0:
            sys.exit(f"{name}: clean ops report error rate {clean}")
        victim = ops[1]
        run = victim.run
        victim.run = lambda: corrupt(run())
        rate = error_rate(ops)
        if not rate > 0:
            sys.exit(f"{name}: a corrupted output of {victim.label} went unnoticed")
        print(f"{name}: clean error rate 0, one corrupted output gives {rate:.3f}")

    try:
        check_layers_fire("census", {"distance.min_distance.calls": 0.0})
    except BenchError:
        print("traced run with a silent layer is refused")
    else:
        sys.exit("a silent layer on its home workload was not refused")


if __name__ == "__main__":
    main()
