"""Entry point of the dualgc benchmark; run it from the repository root.

    python3 perfbench/run.py --workload honest-n6m2 --seed 1 --seconds 50 --trace 0

It measures the ``dualgc`` sources of the checkout it sits in
(``src/dualgc``) and refuses to run without them.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    package = SRC / "dualgc" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: {package} not found; run from a dualgc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
