#!/usr/bin/env python3
"""Time a cold command-line process, and the import of each package module.

    python3 tools/import_probe.py [--src DIR]

Runs ``python3 -m semitoric.cli validate corpus:SQUARE`` and a bare
``python3 -c pass`` in alternation, each PROCESSES (15) times, with the
package imported from DIR (default: the ``src/`` beside this tool), and
reports the median wall time of each and their difference: what a cold
``semitoric`` call costs beyond starting the interpreter.  Then it runs
``python3 -X importtime -c "import semitoric.cli"`` IMPORTTIME_RUNS (5) times
and reports the median self time of each ``semitoric.*`` module and the
cumulative time of ``semitoric.cli``, which includes the standard library
modules the package loads.  Both depend on whether the interpreter may read
and write cached bytecode, so the environment's bytecode setting is printed
first.  Each median comes with its quartiles, so two runs, as of a parent
and a change, can be compared against their spread.  The last line is one
JSON object with every number.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib.util import cache_from_source

HERE = os.path.dirname(os.path.abspath(__file__))
COMMAND = ["-m", "semitoric.cli", "validate", "corpus:SQUARE"]
PROCESSES = 15  # cold processes of each kind
IMPORTTIME_RUNS = 5


def wall(argv: list[str], env: dict) -> float:
    """The wall time of one process, in ms; it must exit 0."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL, check=True)
    return 1000 * (time.perf_counter() - start)


def self_times(env: dict) -> dict[str, int]:
    """Each ``semitoric`` module's ``-X importtime`` self time of one import of the CLI, in us, and under the key
    ``cumulative`` the CLI module's cumulative time."""
    run = subprocess.run([sys.executable, "-X", "importtime", "-c", "import semitoric.cli"], env=env,
                         stderr=subprocess.PIPE, text=True, check=True)
    out = {}
    for line in run.stderr.splitlines():  # "import time: <self us> | <cumulative us> | <indented module name>"
        if line.startswith("import time:") and "|" in line:
            own, cumulative, name = (field.strip() for field in line[len("import time:"):].split("|"))
            if name.split(".")[0] == "semitoric":
                out[name] = int(own)
            if name == "semitoric.cli":
                out["cumulative"] = int(cumulative)
    return out


def quartiles(values) -> list[float]:
    """The first quartile, the median and the third quartile of the values, in ms to 0.1."""
    return [round(q, 1) for q in statistics.quantiles(values, n=4)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"))
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    env = dict(os.environ, PYTHONPATH=src)
    cached = cache_from_source(os.path.join(src, "semitoric", "__init__.py"))  # where this environment keeps it
    bytecode = {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                "PYTHONPYCACHEPREFIX": os.environ.get("PYTHONPYCACHEPREFIX"),
                "cached_package_bytecode": os.path.exists(cached)}
    print("bytecode: " + ", ".join(f"{name}={value}" for name, value in bytecode.items()), flush=True)

    bare, cli = [], []
    for _ in range(PROCESSES):  # alternated, so a change in the host's speed reaches both alike
        bare.append(wall(["-c", "pass"], env))
        cli.append(wall(COMMAND, env))
    processes = {"bare_ms": round(statistics.median(bare), 1), "cli_ms": round(statistics.median(cli), 1)}
    processes["cli_minus_bare_ms"] = round(processes["cli_ms"] - processes["bare_ms"], 1)
    processes["pair_difference_quartiles_ms"] = quartiles(c - b for b, c in zip(bare, cli))
    print(f"{' '.join(COMMAND[1:])}: {processes['cli_ms']:.1f} ms, python3 -c pass: {processes['bare_ms']:.1f} ms, "
          f"difference {processes['cli_minus_bare_ms']:.1f} ms (medians of {PROCESSES}); quartiles of the "
          f"{PROCESSES} pairs' differences {processes['pair_difference_quartiles_ms']} ms", flush=True)

    runs = [self_times(env) for _ in range(IMPORTTIME_RUNS)]
    modules = {name: round(statistics.median(run.get(name, 0) for run in runs) / 1000, 2) for name in runs[0]}
    cumulative = modules.pop("cumulative")
    cumulative_quartiles = quartiles(run["cumulative"] / 1000 for run in runs)
    for name, ms in sorted(modules.items(), key=lambda item: -item[1]):
        print(f"{name:24s} {ms:7.2f} ms self")
    print(f"{'total':24s} {sum(modules.values()):7.2f} ms self; semitoric.cli {cumulative:.2f} ms cumulative "
          f"(medians of {IMPORTTIME_RUNS}; cumulative quartiles {cumulative_quartiles} ms)")
    print(json.dumps({"src": src, "bytecode": bytecode, "processes": PROCESSES, **processes,
                      "importtime_runs": IMPORTTIME_RUNS, "self_ms": modules,
                      "self_total_ms": round(sum(modules.values()), 2), "cli_cumulative_ms": cumulative,
                      "cli_cumulative_quartiles_ms": cumulative_quartiles}))


if __name__ == "__main__":
    main()
