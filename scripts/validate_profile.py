#!/usr/bin/env python3
"""Validate a host-side self-profile exported by nexus-bench --prof / profile_json.

Stdlib-only, so CI can gate on profile well-formedness without extra deps:

  python3 scripts/validate_profile.py <profile.json> [--tolerance-pct P]

Accepts either a single profile document ({"schema":1,...,"tree":...}) or
the `nexus-bench <experiment> --prof=PATH` grid format (a JSON array of
cells in grid order, each carrying a "profile" field with such a
document).

Checks, per profile:
  1. The document is well-formed: schema 1, unit "ns", a "tree" object
     whose nodes carry name/self_ns/total_ns/count (non-negative ints).
  2. The exclusion-ledger invariant holds *exactly*: every node's total_ns
     equals self_ns plus the sum of its children's total_ns (so each
     measured nanosecond lands in exactly one node and a child can never
     exceed its parent).
  3. Sibling names are unique and sorted (the deterministic-shape
     contract: the same run produces the same document shape).
  4. The root total reconciles with the independently measured wall time
     ("wall_ns") within the tolerance (default 5%) — the profiler's clock
     calibration is checked against a second clock, not against itself.
  5. Grid format only: each cell's "detached_wall_ns" (the same run timed
     without the profiler) is a positive integer. The attached/detached
     wall ratio is printed, not gated: it varies run to run with the host.

Exit status: 0 valid, 1 invalid, 2 usage/IO error.
"""
import json
import sys


def fail(msg):
    print(f"validate_profile: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_node(node, path, stats):
    """Recursively check one tree node; returns its total_ns."""
    if not isinstance(node, dict):
        fail(f"{path}: node is not an object")
    name = node.get("name")
    if not isinstance(name, str) or not name:
        fail(f"{path}: missing or empty name")
    here = f"{path};{name}" if path else name
    for field in ("self_ns", "total_ns", "count"):
        v = node.get(field)
        if not isinstance(v, int) or v < 0:
            fail(f"{here}: {field} is not a non-negative integer: {v!r}")
    children = node.get("children", [])
    if not isinstance(children, list):
        fail(f"{here}: children is not an array")
    child_names = []
    child_total = 0
    for child in children:
        child_total += check_node(child, here, stats)
        child_names.append(child["name"])
    if child_names != sorted(child_names):
        fail(f"{here}: children are not name-sorted: {child_names}")
    if len(set(child_names)) != len(child_names):
        fail(f"{here}: duplicate sibling names: {child_names}")
    if node["self_ns"] + child_total != node["total_ns"]:
        fail(
            f"{here}: total_ns {node['total_ns']} != self_ns "
            f"{node['self_ns']} + children {child_total}"
        )
    stats["nodes"] += 1
    return node["total_ns"]


def check_profile(doc, label, tolerance_pct):
    if not isinstance(doc, dict):
        fail(f"{label}: profile is not an object")
    if doc.get("schema") != 1:
        fail(f"{label}: unknown profile schema: {doc.get('schema')!r}")
    if doc.get("unit") != "ns":
        fail(f"{label}: unit is not ns: {doc.get('unit')!r}")
    tree = doc.get("tree")
    if not isinstance(tree, dict):
        fail(f"{label}: missing tree object")
    if tree.get("name") != "all":
        fail(f"{label}: root node is not named 'all': {tree.get('name')!r}")

    stats = {"nodes": 0}
    root_total = check_node(tree, "", stats)

    wall = doc.get("wall_ns", 0)
    if not isinstance(wall, int) or wall < 0:
        fail(f"{label}: wall_ns is not a non-negative integer: {wall!r}")
    if wall > 0 and root_total > 0:
        drift_pct = abs(root_total - wall) / wall * 100.0
        if drift_pct > tolerance_pct:
            fail(
                f"{label}: root total {root_total} ns does not reconcile "
                f"with measured wall {wall} ns (drift {drift_pct:.2f}% > "
                f"{tolerance_pct}%)"
            )
    else:
        drift_pct = 0.0
    print(
        f"validate_profile: {label}: OK — {stats['nodes']} nodes, root "
        f"{root_total} ns, measured wall {wall} ns "
        f"(drift {drift_pct:.2f}%)"
    )


def main():
    args = sys.argv[1:]
    tolerance_pct = 5.0
    if "--tolerance-pct" in args:
        i = args.index("--tolerance-pct")
        try:
            tolerance_pct = float(args[i + 1])
        except (IndexError, ValueError):
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        del args[i : i + 2]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    path = args[0]
    try:
        with open(path, "rb") as f:
            doc = json.load(f)
    except OSError as e:
        print(f"validate_profile: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        fail(f"{path} is not well-formed JSON: {e}")

    if isinstance(doc, list):
        # nexus-bench --prof grid: one cell per (workload, manager, topology, cores).
        if not doc:
            fail("grid document is an empty array")
        for i, cell in enumerate(doc):
            if not isinstance(cell, dict) or "profile" not in cell:
                fail(f"cell {i} has no profile field")
            key = "|".join(
                str(cell.get(k, "?"))
                for k in ("workload", "manager", "topology", "cores")
            )
            check_profile(cell["profile"], key, tolerance_pct)
            detached = cell.get("detached_wall_ns")
            if not isinstance(detached, int) or detached <= 0:
                fail(f"{key}: detached_wall_ns is not a positive integer: "
                     f"{detached!r}")
            attached = cell["profile"].get("wall_ns", 0)
            print(
                f"validate_profile: {key}: attached/detached wall "
                f"{attached / detached:.2f}x"
            )
    else:
        check_profile(doc, path, tolerance_pct)


if __name__ == "__main__":
    main()
