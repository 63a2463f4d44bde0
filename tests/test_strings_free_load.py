"""Loads that check call ids and platforms but do not keep them.

Every statistic command loads a file's counts (`load_dataset(...,
counts=True)`), which hold no record at all; to draw record-level
splits, `evaluate` and `select --strategy auc_greedy` load them with
each rated record's key as well (`keys=True`). On every mutated file of
the exit-code fuzz, at each block size, the keyed load must hold what
the full load holds for `evaluate`, or raise the full load's error
(`test_mutation_fuzz` checks the plain counts load against the reference
loader).
"""

import argparse
import random
from unittest import mock

import numpy as np
import pytest

from toksel import cli
from toksel.counts import RowCounts
from toksel.dataset import load_dataset
from toksel.errors import ParameterError
from toksel.synthgen import generate_truth

from conftest import keyed_contents, written_text
from test_chunked_io import assert_keyed_counts_load_agrees
from test_dataset import _small_demo_config
from test_mutation_fuzz import MUTATIONS, canonical, mutated  # noqa: F401 (canonical is a fixture)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_mutated_files_load_without_strings_as_with_them(fmt, canonical, tmp_path):  # noqa: F811
    rng = random.Random(f"toksel-{fmt}")  # the exit-code fuzz's files, in its order
    path = tmp_path / f"d.{fmt}"
    for _ in range(MUTATIONS):
        path.write_bytes(mutated(canonical[fmt], rng))
        for chunk_text in (1, 7, 64, None):
            assert_keyed_counts_load_agrees(path, fmt, None, chunk_text)


@pytest.fixture(scope="module", params=["csv", "jsonl"])
def survey(request, tmp_path_factory):
    """A written 300-call survey file and its format."""
    fmt = request.param
    path = tmp_path_factory.mktemp("survey") / f"d.{fmt}"
    path.write_text(written_text(generate_truth(_small_demo_config(300)), fmt), encoding="utf-8", newline="")
    return path, fmt


def test_cli_load_keeps_no_strings(survey):
    path, fmt = survey
    args = argparse.Namespace(catalog=None, format="auto")
    with mock.patch.object(cli, "load_dataset", wraps=load_dataset) as load:
        counts = cli._load(args, str(path))
        assert load.call_args.kwargs == {"format": fmt, "catalog": None, "counts": True, "keys": False}
        keyed = cli._load(args, str(path), keys=True)
        assert load.call_args.kwargs == {"format": fmt, "catalog": None, "counts": True, "keys": True}
    # the counts hold the catalog and the distinct rows' counts, and no record
    assert type(counts) is RowCounts and counts.key_of_record is None
    # the keyed counts hold no record array beyond one int32 key per rated record
    assert type(keyed) is RowCounts and set(vars(keyed)) == {"catalog", "rows", "counts", "key_of_record"}
    assert len(keyed.rows) == len(keyed.counts) == len(counts.rows) < len(keyed) == len(counts) == 300
    assert keyed.key_of_record.dtype == np.int32 and keyed.key_of_record.size == keyed.counts[:, 1:].sum()
    assert keyed_contents(keyed) == keyed_contents(load_dataset(path, format=fmt))


def test_keys_need_counts(survey):
    with pytest.raises(ParameterError, match="keys=True needs counts=True"):
        load_dataset(survey[0], format=survey[1], keys=True)
