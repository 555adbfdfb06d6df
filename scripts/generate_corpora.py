#!/usr/bin/env python3
"""Regenerate the shipped corpora under data/ from the documented seed.

The output is deterministic: rerunning this script must reproduce the
checked-in files byte for byte (verified by tests/test_synthetic.py).
"""

import argparse
from pathlib import Path

from copyspec.corpus import file_fingerprint
from copyspec.synthetic import CORPUS_SEED, write_corpora


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=Path(__file__).resolve().parent.parent / "data")
    parser.add_argument("--n", type=int, default=50, help="transcripts per corpus")
    parser.add_argument("--seed", type=int, default=CORPUS_SEED)
    args = parser.parse_args()
    for path in write_corpora(args.out, n=args.n, seed=args.seed):
        print(f"{path}  fingerprint={file_fingerprint(path)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
