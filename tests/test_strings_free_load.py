"""Loads that check call ids and platforms but do not keep them.

The statistic commands load a file's counts (`load_dataset(...,
counts=True)`), which hold no record at all, or, to draw record-level
splits, its records without call ids or platforms
(`record_strings=False`). On every mutated file of the exit-code fuzz,
at each block size, the latter must hold what the full load holds for a
statistic, or raise the full load's error (`test_mutation_fuzz` checks
the counts load against the reference loader). The dataset it gives
refuses to be read for its strings or saved, with one ParameterError.
"""

import argparse
import random
from unittest import mock

import pytest

from toksel import cli
from toksel.counts import RowCounts
from toksel.dataset import filter_dataset, load_dataset, save_dataset
from toksel.errors import ParameterError
from toksel.synthgen import generate_truth

from conftest import statistic_contents, written_text
from test_chunked_io import assert_strings_free_load_agrees
from test_dataset import _small_demo_config
from test_mutation_fuzz import MUTATIONS, canonical, mutated  # noqa: F401 (canonical is a fixture)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_mutated_files_load_without_strings_as_with_them(fmt, canonical, tmp_path):  # noqa: F811
    rng = random.Random(f"toksel-{fmt}")  # the exit-code fuzz's files, in its order
    path = tmp_path / f"d.{fmt}"
    for _ in range(MUTATIONS):
        path.write_bytes(mutated(canonical[fmt], rng))
        for chunk_text in (1, 7, 64, None):
            assert_strings_free_load_agrees(path, fmt, None, chunk_text)


@pytest.fixture(scope="module", params=["csv", "jsonl"])
def survey(request, tmp_path_factory):
    """A written 300-call survey file and its format."""
    fmt = request.param
    path = tmp_path_factory.mktemp("survey") / f"d.{fmt}"
    path.write_text(written_text(generate_truth(_small_demo_config(300)), fmt), encoding="utf-8", newline="")
    return path, fmt


REFUSAL = r"^dataset holds no call ids or platforms \(loaded with record_strings=False\)"


def refusal():
    return pytest.raises(ParameterError, match=REFUSAL)


class TestStringsFreeDataset:
    def test_holds_the_full_load_but_its_strings(self, survey):
        path, fmt = survey
        full = load_dataset(path, format=fmt)
        bare = load_dataset(path, format=fmt, record_strings=False)
        assert statistic_contents(bare) == statistic_contents(full)
        assert bare.arms == full.arms and len(bare) == len(full) == 300
        assert bare._call_ids is None and bare._platforms is None

    def test_strings_and_save_raise_one_parameter_error(self, survey, tmp_path):
        path, fmt = survey
        bare = load_dataset(path, format=fmt, record_strings=False)
        messages = []
        reads = [lambda: bare.call_ids, lambda: bare.platforms, lambda: save_dataset(bare, tmp_path / "out", fmt)]
        for read in reads:
            with refusal() as exc:
                read()
            messages.append(str(exc.value))
        assert len(set(messages)) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("filters", [{}, {"rated_only": True}, {"arm": "none", "responded_only": True}])
    def test_filter_keeps_the_strings_absent(self, survey, filters):
        path, fmt = survey
        bare = filter_dataset(load_dataset(path, format=fmt, record_strings=False), **filters)
        full = filter_dataset(load_dataset(path, format=fmt), **filters)
        assert statistic_contents(bare) == statistic_contents(full)
        assert bare._call_ids is None and bare._platforms is None
        with refusal():
            bare.call_ids


def test_cli_load_keeps_no_strings(survey):
    path, fmt = survey
    args = argparse.Namespace(catalog=None, format="auto")
    with mock.patch.object(cli, "load_dataset", wraps=load_dataset) as load:
        counts = cli._load(args, str(path))
        assert load.call_args.kwargs == {"format": fmt, "catalog": None, "record_strings": False, "counts": True}
        dataset = cli._load(args, str(path), records=True)
        assert load.call_args.kwargs == {"format": fmt, "catalog": None, "record_strings": False, "counts": False}
    # the counts hold the catalog and the distinct rows' counts, and no record
    assert type(counts) is RowCounts and set(vars(counts)) == {"catalog", "rows", "counts"}
    assert len(counts) == len(dataset) == 300
    assert dataset._call_ids is None and dataset._platforms is None
