"""Size of the ``jcm4`` package: lines and AST nodes of each module.

    python3 tools/src_size.py [CHECKOUT ...]

For each source checkout given (default: the one holding this script), it
prints, for every module of ``src/jcm4``, its line count and the number of
nodes ``ast.walk`` visits in its parsed tree, then the totals of both.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def module_sizes(checkout: Path) -> list[tuple[str, int, int]]:
    """(module name, lines, AST nodes) for each module of ``src/jcm4``."""
    sizes = []
    for path in sorted((checkout / "src" / "jcm4").glob("*.py")):
        text = path.read_text()
        sizes.append((path.name, len(text.splitlines()),
                      sum(1 for _ in ast.walk(ast.parse(text)))))
    return sizes


def main(argv=None) -> int:
    checkouts = [Path(arg) for arg in (sys.argv[1:] if argv is None else argv)] or [HERE]
    for checkout in checkouts:
        sizes = module_sizes(checkout)
        if not sizes:
            print(f"{checkout}: no src/jcm4 modules", file=sys.stderr)
            return 2
        print(checkout)
        for name, lines, nodes in sizes:
            print(f"  {name:<16}{lines:>7} lines{nodes:>8} nodes")
        print(f"  {'total':<16}{sum(s[1] for s in sizes):>7} lines"
              f"{sum(s[2] for s in sizes):>8} nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
