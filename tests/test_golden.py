"""Golden output oracle: the SHA-256 of every CSV/JSON file that a fixed set
of ``jcm`` commands writes.

The test regenerates the files through ``cli.main`` and names each file
whose hash differs from ``golden/sha256sums`` (or that is missing or new).
A change that moves output bytes on purpose rewrites that file in the same
commit, with ``python tests/test_golden.py``, and names each moved file and
field in CHANGES.md.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from jcm4.cli import main

HASHES = Path(__file__).parent / "golden" / "sha256sums"
LARGE = ["--nbar", "5000", "--cutoff", "5470"]

# (output subdirectory, arguments): the six README commands, a rotated
# field, and the paper's large-photon-number regime
RUNS = [
    ("readme", ["pnd", "--tau", "pi/4", "--tau", "pi/8,pi/8-pi/24000"]),
    ("readme", ["entropy", "--tau-min", "0", "--tau-max", "pi", "--steps", "801"]),
    ("readme", ["entropy", "--dip-window"]),
    ("readme", ["qfunc", "--tau", "pi/4+pi/800", "--resolution", "241",
                "--threshold", "0.1"]),
    ("readme", ["inversion", "--tau-max", "pi/2"]),
    ("readme", ["catcheck", "--r", "1"]),
    ("phase", ["catcheck", "--r", "3", "--alpha-phase", "0.3"]),
    ("nbar5000", ["entropy", "--dip-window", *LARGE]),
    ("nbar5000", ["pnd", "--tau", "pi/4+pi/80000", *LARGE]),
    ("nbar5000", ["catcheck", *LARGE]),
]


def generate(root: Path) -> dict[str, str]:
    """Run every command under ``root``; SHA-256 of each file it wrote."""
    for sub, argv in RUNS:
        assert main([*argv, "--out", str(root / sub)]) == 0, argv
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def read_hashes() -> dict[str, str]:
    pairs = (line.split() for line in HASHES.read_text().splitlines() if line)
    return {name: digest for digest, name in pairs}


def test_outputs_match_golden_hashes(tmp_path):
    expected = read_hashes()
    got = generate(tmp_path)
    moved = sorted(name for name in expected.keys() | got.keys()
                   if expected.get(name) != got.get(name))
    assert not moved, f"output bytes differ from {HASHES.name}: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = generate(Path(tmp))
    HASHES.write_text("".join(f"{digest}  {name}\n" for name, digest in hashes.items()))
    print(f"wrote {len(hashes)} hashes to {HASHES}", file=sys.stderr)
