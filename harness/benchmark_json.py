#!/usr/bin/env python3
"""Writes ../BENCHMARK.json (the schema the benchmark driver reads) and
detail.json (everything that schema has no keys for) from the harness's own
catalogue, `harness --describe`.  Run from the repo root after a change to
src/catalogue.rs; a unit test fails while the files and the catalogue
disagree.

    python3 harness/benchmark_json.py
"""

import json
import subprocess

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "harness/Cargo.toml", "--"]
RUN_SECONDS = 10


def flat(entry):
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entry.items()) + "}"


def main():
    text = subprocess.run(COMMAND + ["--describe"], check=True,
                          capture_output=True, text=True).stdout
    detail = json.loads(text)
    lists = {
        "workloads": [{"name": w["name"], "why": w["why"]} for w in detail["workloads"]],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")}
            for m in detail["end_to_end"] if m["bound"] is not None
        ],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in detail["per_layer"]],
    }
    lines = ["{",
             f'  "command": {json.dumps(COMMAND)},',
             '  "paths": ["harness"],',
             f'  "run_seconds": {RUN_SECONDS},']
    for key, entries in lists.items():
        lines.append(f'  "{key}": [')
        lines += [f"    {flat(e)}{',' if i + 1 < len(entries) else ''}"
                  for i, e in enumerate(entries)]
        lines.append("  ]" + ("," if key != "per_layer" else ""))
    lines.append("}")
    with open("BENCHMARK.json", "w") as f:
        f.write("\n".join(lines) + "\n")
    with open("harness/detail.json", "w") as f:
        f.write(text)


if __name__ == "__main__":
    main()
