"""Traced stand-in for `python -m stringbands`, used by cli-cold's traced run.

    python3 bench/cliprobe.py <stringbands arguments>

Times the import of stringbands.cli, runs cli.main with the layer calls
wrapped, prints the CLI's own output unchanged and adds one line to stderr:
PROBE_MARK followed by a JSON record of the clock readings, span totals and
counters.  perf_counter is CLOCK_MONOTONIC on Linux, so the parent can
subtract its own readings from the ones recorded here.
"""

from time import perf_counter

T_START = perf_counter()

import sys  # noqa: E402

import stringbands.cli as cli  # noqa: E402

T_IMPORTED = perf_counter()

import json  # noqa: E402

from spans import PROBE_MARK, Counters, Tracer, install_layers  # noqa: E402


def main() -> int:
    tracer = Tracer()
    counters = Counters()
    install_layers(
        tracer,
        counters,
        (sys.modules["stringbands.oracle"], sys.modules["stringbands.components"], cli),
    )
    code = tracer.wrap("cli.exec", cli.main)(sys.argv[1:])
    sys.stdout.flush()
    record = {
        "start": T_START,
        "imported": T_IMPORTED,
        "totals": tracer.totals(),
        "counters": counters.as_dict(),
    }
    record["end"] = perf_counter()
    print(PROBE_MARK + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
