"""Set-up probe: import the CLI and parse the inputs, stopping before any
computation.  The benchmark times this process from spawn to exit.

    python setup_probe.py map|rep INPUT...
"""

import json
import sys

import tamebars.cli as cli
from tamebars.complexes import load_document


def main(kind, paths):
    parse = load_document if kind == "map" else cli.rep_from_json
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            parse(json.load(fh))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
