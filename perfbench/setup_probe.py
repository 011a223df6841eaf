"""Set-up probe: import the ekslab CLI and parse artifacts, running no suite.

Usage: python3 perfbench/setup_probe.py ARTIFACT...

Each artifact is loaded the way ``ekslab verify`` loads it, by schema.
"""

import sys


def main(paths) -> int:
    from ekslab import cli

    for path in paths:
        doc = cli._load_json(path)
        schema = doc.get("schema")
        if schema == "selmer-instance/1":
            cli.instance_from_json(doc)
        elif schema == "euler-system/1":
            cli.euler_system_from_json(doc)
        elif schema == "eks-bundle/1":
            cli.instance_from_json(doc["instance"])
            cli.euler_system_from_json(doc["euler"])
        else:
            print(f"{path}: unexpected schema {schema!r}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
