"""The default `run` files keep their bytes.

``tests/golden/run.sha256`` holds the SHA-256 of the `run` file of every
shipped corpus under every strategy at default flags, in ``sha256sum``
format. A change that alters a metric file on purpose regenerates it
from the files ``scripts/identity_outputs.sh OUT`` writes:

    (cd OUT/run && sha256sum *.json) > tests/golden/run.sha256

and says so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from copyspec.cli import main

MANIFEST = Path(__file__).parent / "golden" / "run.sha256"
CORPORA = ("redundant_2turn", "novel_2turn", "selfcorrect_3turn")
STRATEGIES = ("baseline", "copy", "specdec", "copy+specdec")


def golden_digests() -> dict[str, str]:
    digests = {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests


def test_manifest_names_every_default_run():
    assert sorted(golden_digests()) == sorted(f"{c}.{s}.json" for c in CORPORA for s in STRATEGIES)


@pytest.mark.parametrize("corpus", CORPORA)
def test_run_files_match_the_golden_digests(corpus, data_dir, tmp_path):
    golden = golden_digests()
    for strategy in STRATEGIES:
        out = tmp_path / f"{corpus}.{strategy}.json"
        assert main(["run", "--corpus", str(data_dir / f"{corpus}.jsonl"), "--strategy", strategy, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden[out.name], out.name
