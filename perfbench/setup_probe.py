"""Set up one workload in a fresh process and print the monotonic clock.

``run.py`` starts this script and takes the set-up time as the printed
time minus the time just before the start, so interpreter start-up and
the package import count:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

from run import use_checkout_source

use_checkout_source()

import workloads  # noqa: E402  (needs the checkout's src on sys.path)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(time.monotonic())
