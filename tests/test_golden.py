"""Golden outputs of the numpy-free stages: the SHA-256 of every output file
and of stdout of `gen`, `align`, `convert` and `eval`, run through
`sgforge.cli.run` on the desk corpus and on the bench's score corpus. A
change that moves one byte of them fails here.

`tests/golden.json` records the digests and the Python version that made
them. To regenerate it, when an output is meant to change, run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import pytest

from sgforge.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
sys.path.insert(0, str(ROOT / "bench"))

import corpora  # noqa: E402


def _desk(d: Path) -> list[tuple[str, list[str]]]:
    regions, conll, graphs = d / "regions.jsonl", d / "targets.conll", d / "graphs.jsonl"
    return [
        ("gen", ["gen", "--n", "400", "--seed", "1", "--out", regions]),
        ("align", ["align", "--regions", regions, "--out", conll]),
        ("convert --regions", ["convert", "--in", conll, "--regions", regions, "--out", graphs]),
        ("eval", ["eval", "--pred", graphs, "--ref", regions, "--out", d / "eval.jsonl"]),
    ]


def _score(d: Path) -> list[tuple[str, list[str]]]:
    records, lexicon, _ = corpora.score_corpus(seed=44, n=1000)
    regions, lex, conll = d / "regions.jsonl", d / "lexicon.json", d / "targets.conll"
    regions.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    lex.write_text(json.dumps(lexicon, sort_keys=True))
    runs = [
        ("align", ["align", "--regions", regions, "--lexicon", lex, "--out", conll]),
        ("convert", ["convert", "--in", conll, "--out", d / "oracle.jsonl"]),
        ("convert --regions", ["convert", "--in", conll, "--regions", regions,
                               "--out", d / "graphs.jsonl"]),
    ]
    for mode in ("base", "limited"):
        runs.append((f"eval {mode}", ["eval", "--pred", d / "oracle.jsonl", "--ref", regions,
                                      "--mode", mode, "--lexicon", lex,
                                      "--out", d / f"eval.{mode}.jsonl"]))
    return runs


CORPORA = {"desk": _desk, "score": _score}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(corpus: str, d: Path) -> dict:
    """{run name: {"out": digest of its --out file, "stdout": digest of stdout}}."""
    result = {}
    for name, argv in CORPORA[corpus](d):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = run([str(a) for a in argv])
        assert rc == 0, f"{corpus} {name} exited {rc}"
        out = Path(argv[argv.index("--out") + 1])
        result[name] = {"out": _sha256(out.read_bytes()),
                        "stdout": _sha256(stdout.getvalue().encode())}
    return result


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_outputs_match_golden_digests(corpus, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert digests(corpus, tmp_path) == golden["corpora"][corpus]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found = {}
        for corpus in sorted(CORPORA):
            (Path(tmp) / corpus).mkdir()
            found[corpus] = digests(corpus, Path(tmp) / corpus)
    GOLDEN.write_text(json.dumps({"python": platform.python_version(), "corpora": found},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
