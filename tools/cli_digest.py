"""Print a SHA-256 digest of every output of a fixed matrix of CLI commands.

Usage, from the root of a source checkout (it imports cmop from ``src``)::

    python3 tools/cli_digest.py > digest.txt
    python3 tools/cli_digest.py --against digest.txt   # exit 1 on any change

The script generates fixed-seed instances in a temporary directory, runs
``solve``, ``sweep`` and ``check`` on them in-process through
``cmop.cli.main``, and prints one ``sha256  relative-path`` line per output
file and per command's captured stdout/stderr and exit status. Two
checkouts that should behave identically must print identical digests:
diff the output of this script run on each, or save one and pass it to the
other as ``--against``, which prints only the lines that differ (``-`` for
a saved line this run does not print, ``+`` for a new one, in path order)
and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
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
# An instance and a solution above the 25,600 numbers from which the writer
# encodes a document's matrices on two CPUs (formats._SPLIT_NUMBERS):
# 2 x 160 x (128 + 257) and 2 x 128 x 257 numbers; every other file the
# digest writes is far below it. The 2.9 MB instance is
# above the size from which the reader walks a file through its window and
# parses its matrices on two CPUs (formats._SPLIT_CHARS); the 1.6 MB
# solution is below it and goes whole to json.loads. The instance's
# matrices cross the seams between the blocks of rows that the reader
# decodes and the writer encodes (formats._BLOCK_NUMBERS numbers a block):
# h parses in 2 blocks of rows and a in 3. The digest pins those paths with
# three commands, not the whole matrix.
SPLIT_INSTANCE = ("s0", ["--seed", "0", "--m", "160", "--n", "128", "--k", "257"])
# An instance whose certify check evaluates its samples in blocks of fewer
# than 64: lemma2's largest temporary per sample is 16 max(M, 2N) K bytes
# (200 KiB here) and lemma4's 16 N K (40 KiB), so blocks of a fixed byte
# budget split below the 64-sample cap, while every other instance's
# blocks hold 64 samples.
BLOCK_INSTANCE = ("b0", ["--seed", "0", "--m", "200", "--n", "40", "--k", "64", "--eta", "0.5"])
SWEEP_ALPHAS = "f0.3,f0.9,fbad"
# More steps than CPUs, out of cost order, with an error row and a step that
# diverges under gd: the split of a sweep over worker processes must not
# show in its outputs.
MIXED_SWEEP_ALPHAS = "f0.9,fbad,f0.1,1e9,f0.5,f0.3"
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
    for method in ("gd", "pgd"):
        cmds.append((f"sweep-{method}-mixed", [
            "sweep", inst, "--method", method, "--alphas", MIXED_SWEEP_ALPHAS,
            "--tau", TAU, "--out-dir", f"{out}/sweep-{method}-mixed",
        ]))
    cmds += [
        ("solve-gd-diverges", [
            "solve", inst, "--method", "gd", "--alpha", "1e6",
            "--trace", f"{out}/gd-diverges.csv",
        ]),
        # A step so long that the first iterate's objective overflows.
        ("solve-real-augmented-overflows", [
            "solve", inst, "--method", "real-augmented", "--alpha", "1e300",
            "--trace", f"{out}/real-augmented-overflows.csv",
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
        # A fixed step above 1/L on the p instances: thm3 on a step that
        # the projected method's guarantee does not cover, and no warning.
        ("check-pgd-fixed", [
            "check", inst, "--w-source", "pgd", "--monitors", "thm3,kkt",
            "--alpha", "1e-3", "--report", f"{out}/check-pgd-fixed.txt",
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


def _split_commands(tag: str, gen_args: list[str]) -> list[tuple[str, list[str]]]:
    inst = f"{tag}.cmop.json"
    return [
        ("gen", ["gen", *gen_args, "-o", inst]),
        ("solve-closed", ["solve", inst, "--method", "closed", "-o", f"{tag}/closed.json"]),
        ("check-file", [
            "check", inst, "--w-source", "file", "--monitors", "kkt",
            "--w-file", f"{tag}/closed.json", "--report", f"{tag}/check-file.txt",
        ]),
    ]


def _block_commands(tag: str, gen_args: list[str]) -> list[tuple[str, list[str]]]:
    inst = f"{tag}.cmop.json"
    return [
        ("gen", ["gen", *gen_args, "-o", inst]),
        ("check-certify", [
            "check", inst, "--w-source", "pgd",
            "--monitors", "thm3,kkt,lemma2,lemma4,lipschitz",
            "--alpha", "f0.9", "--tau", TAU, "--seed", gen_args[1],
            "--report", f"{tag}/check-certify.txt",
        ]),
    ]


def _run(name: str, argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return f"{name}\nexit={status}\n--stdout\n{out.getvalue()}--stderr\n{err.getvalue()}".encode()


def digest_lines() -> list[str]:
    """The digest: one ``sha256  path`` line per output, in path order."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            cases = [(tag, _commands(tag, gen_args)) for tag, gen_args in INSTANCES]
            cases.append((SPLIT_INSTANCE[0], _split_commands(*SPLIT_INSTANCE)))
            cases.append((BLOCK_INSTANCE[0], _block_commands(*BLOCK_INSTANCE)))
            for tag, commands in cases:
                Path(tag).mkdir()
                for name, argv in commands:
                    digest = hashlib.sha256(_run(name, argv)).hexdigest()
                    lines.append(f"{digest}  {tag}/{name}.console")
            for path in sorted(Path(".").rglob("*")):
                if path.is_file():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {path.as_posix()}")
        finally:
            os.chdir(cwd)
    return sorted(lines, key=_path)


def _path(line: str) -> str:
    return line.split("  ", 1)[-1]


def differing_lines(saved: list[str], current: list[str]) -> list[str]:
    """``- line`` for each saved line that ``current`` lacks and ``+ line``
    for each line of ``current`` that ``saved`` lacks, in path order, the
    saved line first."""
    old, new = set(saved), set(current)
    changed = [(_path(line), 0, f"- {line}") for line in old - new]
    changed += [(_path(line), 1, f"+ {line}") for line in new - old]
    return [line for *_, line in sorted(changed)]


def main_digest(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="OLD.txt",
                        help="print only the lines that differ from this saved digest")
    args = parser.parse_args(argv)
    lines = digest_lines()
    if args.against is None:
        print("\n".join(lines))
        return 0
    changed = differing_lines(args.against.read_text().splitlines(), lines)
    if changed:
        print("\n".join(changed))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main_digest())
