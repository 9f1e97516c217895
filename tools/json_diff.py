#!/usr/bin/env python3
"""Compare two JSON files, or two scenario output directories, key by key.

Every leaf of A (a scalar, or an empty object or array) is addressed by
its path, e.g. `fault.activations[0].at_ns`. The script fails when a
path of A is missing from B or holds a textually different value there
(values compare as their JSON text, so 4 and "4" differ). Paths that
exist only in B are listed but do not fail the run: they are the keys
a newer writer added. The top-level `meta` object (build type, git SHA,
timestamp) is ignored.

With two directories, every *.json file of A is compared with the file
of the same name in B; a file missing from B is a failure.

Usage:
    json_diff.py A.json B.json
    json_diff.py A_dir B_dir

Exit status: 0 when nothing of A is missing or changed in B, else 1.
Only the Python standard library is used.
"""

import argparse
import json
import os
import sys


def leaves(value, path, out):
    """Fill out with {path: JSON text} for every leaf under value."""
    if isinstance(value, dict) and value:
        for key, child in value.items():
            leaves(child, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list) and value:
        for i, child in enumerate(value):
            leaves(child, f"{path}[{i}]", out)
    else:
        out[path] = json.dumps(value)
    return out


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc.pop("meta", None)
    return leaves(doc, "", {})


def diff_files(a, b, label):
    """Print the differences of one file pair; return the failure count."""
    la, lb = load(a), load(b)
    failures = 0
    for path in sorted(la.keys() - lb.keys()):
        print(f"{label}: missing in B: {path} = {la[path]}")
        failures += 1
    for path in sorted(la.keys() & lb.keys()):
        if la[path] != lb[path]:
            print(f"{label}: changed: {path}: {la[path]} -> {lb[path]}")
            failures += 1
    added = sorted(lb.keys() - la.keys())
    for path in added:
        print(f"{label}: only in B: {path} = {lb[path]}")
    print(f"{label}: {len(la)} keys compared, {failures} missing or "
          f"changed, {len(added)} only in B")
    return failures


def main():
    ap = argparse.ArgumentParser(
        description="Compare two JSON files or scenario output dirs.")
    ap.add_argument("a", help="reference JSON file or directory")
    ap.add_argument("b", help="JSON file or directory to check")
    args = ap.parse_args()

    if os.path.isdir(args.a) != os.path.isdir(args.b):
        sys.exit("json_diff.py: compare two files or two directories")
    if not os.path.isdir(args.a):
        return 1 if diff_files(args.a, args.b, args.b) else 0

    failures = 0
    names = sorted(n for n in os.listdir(args.a) if n.endswith(".json"))
    if not names:
        sys.exit(f"json_diff.py: no *.json files in {args.a}")
    for name in names:
        b = os.path.join(args.b, name)
        if not os.path.exists(b):
            print(f"{name}: missing in B")
            failures += 1
            continue
        failures += diff_files(os.path.join(args.a, name), b, name)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
