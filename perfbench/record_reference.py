"""Record the reference digests that the structure and census checks use.

    python3 perfbench/record_reference.py

Every structure request is recorded for each factorizer seed in
range(FACTOR_SEEDS).  Census records are recorded for each of those seeds
too and must agree, because the census set-up may use any of them.  Run it
only at a commit whose outputs are the intended ones; the digests pin those
outputs byte for byte.
"""

import json
import sys

from run import use_checkout_source

use_checkout_source()

import workloads as w  # noqa: E402  (needs the checkout's src on sys.path)


def main():
    structure = {}
    for ring, moduli, _ in w.STRUCTURE_POOL:
        for command in w.STRUCTURE_COMMANDS:
            for fs in range(w.FACTOR_SEEDS):
                out = w.run_cli(w.structure_argv(ring, moduli, command, fs))
                structure[w.structure_key(ring, moduli, command, fs)] = w.digest(out)
        print(f"structure {w.ambient_key(ring, moduli)}", file=sys.stderr)

    census = {}
    for ring, moduli in w.CENSUS_AMBIENTS:
        key = w.ambient_key(ring, moduli)
        for fs in range(w.FACTOR_SEEDS):
            amb = w.build_ambient(ring, moduli)
            for idx, code in enumerate(w.codes_mod.enumerate_codes(amb, seed=fs)):
                label = f"{key}|{idx}"
                d = w.digest(w.census_record(code))
                if census.setdefault(label, d) != d:
                    sys.exit(f"census record {label} depends on the factorizer seed")
        print(f"census {key}", file=sys.stderr)

    with open(w.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"structure": structure, "census": census}, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
