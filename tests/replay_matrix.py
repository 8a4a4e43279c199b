"""Byte matrix of the command line: one sha256 per command, for diffing two trees.

    python tests/replay_matrix.py [--src DIR] > digests.txt

Each command runs as ``python -m nshard.cli`` in a fresh process, with
``DIR`` (default: the ``src`` next to this file) first on PYTHONPATH, in an
empty directory of its own that it writes to as ``--out .``.  Its line is
the sha256 over the names and bytes of the files it wrote, its stdout, its
stderr and its exit code, followed by the command.  Run the script in two
checkouts and ``diff`` the outputs: a line that differs is a command whose
observable behaviour changed.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# The montecarlo and certify benchmark configurations (bench/README.md).
MC_BENCH = "mc --mode desk --k 5 --rho 1e-4 --T 50 --d 200 --runs 100"
CERTIFY_BENCH = "run --mode desk --d 10 --k 4 --rho 0.25 --algo pgd --T 2 --delta 1.0"
ALGOS = ("sgd", "pgd", "random", "grid")

COMMANDS = [
    "build --mode desk --d 6 --k 4 --rho 1e-3 --seed 7",
    "build --mode theory --d 5 --T 3 --seed 2",
    "build --mode desk --d 6 --k 3 --precision extended --seed 1",
    *[f"run --mode desk --d 10 --k 4 --rho 1e-3 --T 30 --algo {a} --seed 3" for a in ALGOS],
    *[f"run --mode desk --d 50 --T 8 --delta 0 --algo {a} --seed 0" for a in ALGOS],
    "run --mode desk --d 6 --k 3 --T 10 --algo pgd --precision extended --seed 1",
    "run --mode theory --d 5 --T 3 --algo pgd --seed 2",
    "run --mode desk --d 4 --k 3 --T 12 --algo random --radius 0.3 --seed 4",
    "run --mode desk --d 4 --k 3 --T 12 --algo grid --resolution 0.7 --seed 4",
    "run --mode desk --d 4 --k 3 --T 12 --algo pgd --noise 0.5 --eta 0.02 --seed 4",
    # from t = 14 on the flow steps over the cap cone; the fallback points certify every iterate
    "run --mode desk --d 10 --k 4 --rho 1e-3 --algo sgd --T 24 --delta 1.0 --seed 9",
    *[f"{CERTIFY_BENCH} --seed {s}" for s in (1, 2)],
    *[f"mc --mode desk --runs 100 --T 8 --d 12 --algo {a} --seed 0" for a in ALGOS],
    *[f"{MC_BENCH} --algo {a} --seed {s}" for a in ALGOS for s in (1, 2)],
    f"{MC_BENCH} --algo pgd --noise 0 --seed 1",
    f"{MC_BENCH} --algo pgd --T 1 --seed 1",
    f"{MC_BENCH} --algo pgd --T 2 --seed 1",
    f"{MC_BENCH} --algo pgd --noise 0.5 --seed 1",
    "mc --mode desk --k 3 --rho 1e-3 --T 8 --d 12 --algo pgd --runs 100 --precision extended --seed 1",
    "mc --mode theory --T 4 --d 30 --algo pgd --runs 100 --seed 5",
    "mc --mode desk --k 2 --rho 1e-3 --T 4 --d 2 --algo random --runs 100 --seed 2",
    "mc --mode desk --k 5 --rho 1e-4 --T 20 --d 60 --algo pgd --runs 500 --seed 6",
    # overflow: iterates far out, certified as 0 or stopped with one error line
    "run --algo sgd --eta 1e308 --T 3",
    "run --mode desk --d 4 --k 3 --algo pgd --eta 1e308 --T 5 --seed 3 --delta 0",
    "mc --mode desk --runs 100 --T 5 --d 5 --algo pgd --eta 1e308 --seed 3",
    *[f"{MC_BENCH} --algo {a} --eta 1e308 --seed 1" for a in ("sgd", "pgd")],
    # input errors
    "run --algo grid --resolution 0",
    "run --algo grid --resolution inf",
    "run --algo sgd --eta nan",
    "run --algo pgd --eta -1",
    "mc --eta inf --runs 100 --T 3 --d 4",
    "run --delta 2",
    "run --delta -1",
    "run --noise -0.5",
    "mc --runs 10",
    "check --seed 0",
    "check --seed 0 --precision extended",
]


def digest(argv, src: Path) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, "-m", "nshard.cli", *argv, "--out", "."], cwd=out, env=env,
                              capture_output=True)
        h = hashlib.sha256()
        for p in sorted(Path(out).iterdir()):
            h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    for part in (proc.stdout, proc.stderr, str(proc.returncode).encode()):
        h.update(part + b"\0")
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that holds the nshard package to run")
    src = parser.parse_args().src.resolve()
    for command in COMMANDS:
        print(digest(command.split(), src), command, flush=True)


if __name__ == "__main__":
    main()
