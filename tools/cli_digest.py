"""Print a SHA-256 digest of every output of a fixed matrix of CLI commands.

Usage, from the root of a source checkout (it imports cmop from ``src``)::

    python3 tools/cli_digest.py > digest.txt

The script generates fixed-seed instances in a temporary directory, runs
``solve``, ``sweep`` and ``check`` on them in-process through
``cmop.cli.main``, and prints one ``sha256  relative-path`` line per output
file and per command's captured stdout/stderr and exit status. Two
checkouts that should behave identically must print identical digests:
diff the output of this script run on each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmop.cli import main  # noqa: E402

# (tag, gen arguments): paper-scale instances with about one active row,
# an instance whose tight budget makes most rows active, and one with N > M,
# whose singular G reaches the closed form and the oracle's proximal path.
INSTANCES = tuple((f"p{seed}", ["--seed", str(seed)]) for seed in range(5)) + (
    ("c0", ["--seed", "0", "--m", "16", "--n", "8", "--k", "8", "--eta", "0.01"]),
    ("r0", ["--seed", "0", "--m", "4", "--n", "6", "--eta", "0.01"]),
)
SWEEP_ALPHAS = "f0.3,f0.9,fbad"
TAU = "1e-14"


def _commands(tag: str, gen_args: list[str]) -> list[tuple[str, list[str]]]:
    """(name, argv) for every command run on instance ``tag``."""
    inst = f"{tag}.cmop.json"
    out = tag  # every output lands in the instance's own directory
    seed = gen_args[1]  # gen_args starts with --seed <n>
    cmds = [("gen", ["gen", *gen_args, "-o", inst])]
    for method in ("gd", "pgd", "real-augmented", "closed", "oracle"):
        cmds.append((f"solve-{method}", [
            "solve", inst, "--method", method, "--alpha", "f0.9", "--tau", TAU,
            "--trace", f"{out}/{method}.csv", "-o", f"{out}/{method}.json",
        ]))
        if method in ("gd", "pgd", "real-augmented"):
            cmds.append((f"sweep-{method}", [
                "sweep", inst, "--method", method, "--alphas", SWEEP_ALPHAS,
                "--tau", TAU, "--out-dir", f"{out}/sweep-{method}",
            ]))
    cmds += [
        ("solve-pgd-radius-is-eta", [
            "solve", inst, "--method", "pgd", "--alpha", "f0.5", "--radius-is-eta",
            "--trace", f"{out}/pgd-rie.csv", "-o", f"{out}/pgd-rie.json",
        ]),
        ("solve-gd-diverges", [
            "solve", inst, "--method", "gd", "--alpha", "1e6",
            "--trace", f"{out}/gd-diverges.csv",
        ]),
        ("check-gd", [
            "check", inst, "--w-source", "gd", "--monitors", "thm2,lemma2,lipschitz",
            "--alpha", "f0.9", "--tau", TAU, "--seed", seed,
            "--report", f"{out}/check-gd.txt",
        ]),
        ("check-pgd", [
            "check", inst, "--w-source", "pgd", "--monitors", "thm3,kkt,lemma4",
            "--alpha", "f0.9", "--tau", TAU, "--seed", seed,
            "--report", f"{out}/check-pgd.txt",
        ]),
        ("check-certify", [
            "check", inst, "--w-source", "pgd",
            "--monitors", "thm3,kkt,lemma2,lemma4,lipschitz",
            "--alpha", "f0.9", "--tau", TAU, "--seed", seed,
            "--report", f"{out}/check-certify.txt",
        ]),
        ("check-oracle", [
            "check", inst, "--w-source", "oracle", "--monitors", "kkt",
            "--report", f"{out}/check-oracle.txt",
        ]),
        ("check-file", [
            "check", inst, "--w-source", "file", "--monitors", "kkt",
            "--w-file", f"{out}/real-augmented.json", "--report", f"{out}/check-file.txt",
        ]),
    ]
    return cmds


def _run(name: str, argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return f"{name}\nexit={status}\n--stdout\n{out.getvalue()}--stderr\n{err.getvalue()}".encode()


def main_digest() -> None:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for tag, gen_args in INSTANCES:
                Path(tag).mkdir()
                for name, argv in _commands(tag, gen_args):
                    digest = hashlib.sha256(_run(name, argv)).hexdigest()
                    lines.append(f"{digest}  {tag}/{name}.console")
            for path in sorted(Path(".").rglob("*")):
                if path.is_file():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {path.as_posix()}")
        finally:
            os.chdir(cwd)
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))


if __name__ == "__main__":
    main_digest()
