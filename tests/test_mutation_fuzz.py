"""The exit-code contract on mutated survey files.

Seeded mutations of a small canonical CSV file and a small canonical JSONL
file: a flipped bit, truncation at any byte (mid-character included), an
inserted quote, NUL, byte order mark, carriage return, line feed or bytes
that are not UTF-8, and odd cell and rating values. Each mutated file must
load as the row-by-row reference loads it, at blocks of 1, 7 and 64 bytes:
the same Dataset, or the same exception with the same message. So must
its counts load (`counts=True`), whose counts must be the reference
Dataset's records counted one by one. And `toksel select`, `audit` and
`abtest` on it must each exit 0, or 2 with one stderr line, and raise
nothing.

Both files are longer than the 8 KiB chunks in which a text file decodes
its bytes, so that a decoding error can fall in a later chunk than a bad
row before it.
"""

import random
from unittest import mock

import pytest

from toksel import dataset as dataset_module
from toksel.cli import main
from toksel.synthgen import generate_truth

from conftest import counts_contents, reference_counts_contents, written_text
from reference_io import load_reference
from test_chunked_io import outcome
from test_dataset import _small_demo_config

MUTATIONS = 120  # per format
INSERTED = [b'"', b"\0", b"\xef\xbb\xbf", b"\r", b"\n", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe2\x82"]
# put in place of one digit: of a cell, a rating or a call id
ODD_VALUES = [b"2", b"", b"11", b" 1", b"+1", b"x", b"-1", b"1.0", b"\xc3\xa9", b"null", b"true", b'"1"']


def mutated(data: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(data))
    kind = rng.choice(["flip", "truncate", "insert", "value"])
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]
    if kind == "truncate":
        return data[:at]
    if kind == "insert":
        return data[:at] + rng.choice(INSERTED) + data[at:]
    at = rng.choice([i for i, byte in enumerate(data) if byte in b"012345"])
    return data[:at] + rng.choice(ODD_VALUES) + data[at + 1:]


@pytest.fixture(scope="module")
def canonical():
    """The bytes of a 200-record CSV file and a 30-record JSONL file, as `save_dataset` writes them."""
    return {
        "csv": written_text(generate_truth(_small_demo_config(200)), "csv").encode(),
        "jsonl": written_text(generate_truth(_small_demo_config(30)), "jsonl").encode(),
    }


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_mutated_files_load_as_the_reference_and_exit_0_or_2(fmt, canonical, tmp_path, capsys):
    rng = random.Random(f"toksel-{fmt}")
    path, out = tmp_path / f"d.{fmt}", tmp_path / "trace.json"
    commands = [
        ["select", "--input", str(path), "--k", "1", "--output", str(out)],
        ["audit", "--input", str(path), "--trials", "3", "--seed", "0"],
        ["abtest", "--control", str(path), "--treatment", str(path)],
    ]
    assert len(canonical[fmt]) > 8192
    for _ in range(MUTATIONS):
        path.write_bytes(mutated(canonical[fmt], rng))
        expected = outcome(load_reference, path, fmt, None)
        expected_counts = outcome(load_reference, path, fmt, None, reference_counts_contents)
        for chunk_text in (1, 7, 64):
            with mock.patch.object(dataset_module, "_CHUNK_TEXT", chunk_text):
                assert outcome(dataset_module.load_dataset, path, fmt, None) == expected, path.read_bytes()
                got = outcome(dataset_module.load_dataset, path, fmt, None, counts_contents, counts=True)
                assert got == expected_counts, path.read_bytes()
        for command in commands:
            capsys.readouterr()
            code = main([*command, "--format", fmt])
            err = capsys.readouterr().err
            assert (code, err) == (0, "") or (code == 2 and err.count("\n") == 1 and err.endswith("\n")), (command, err)
