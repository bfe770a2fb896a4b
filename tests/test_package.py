"""The package surface: its exported names and the JSON it prints for traces."""

from __future__ import annotations

import hashlib
import importlib
import json

import pytest

import contagion
from contagion import (
    GnpParams,
    construct_contagious,
    density_witness,
    min_contagious_exact,
    percolate,
    sample_gnp,
)

SUBMODULES = ("bounds", "construct", "exact", "experiments", "graph", "percolation")


def test_package_exports_the_union_of_the_submodule_lists():
    lists = [importlib.import_module(f"contagion.{name}").__all__ for name in SUBMODULES]
    names = [name for names in lists for name in names]
    assert len(names) == len(set(names))
    assert sorted(contagion.__all__) == sorted(names)
    for name in contagion.__all__:
        assert getattr(contagion, name) is not None
    # once exported by the package only, or by their module only
    once_in_one_list = {"MODES", "gather_rows", "predicted_threshold", "render_output",
                        "render_csv", "render_json"}
    assert once_in_one_list <= set(contagion.__all__)


def _staged_trace():
    _, trace = construct_contagious(sample_gnp(GnpParams(20_000, 40.0 / 20_000, 3)))
    assert not trace.fallback_used
    return trace


def _fallback_trace():
    _, trace = construct_contagious(sample_gnp(GnpParams(500, 2.0 / 500, 4)))
    assert trace.fallback_used
    return trace


def _exact_result():
    return min_contagious_exact(sample_gnp(GnpParams(14, 0.2, 5)), 2)


def _density_report():
    g = sample_gnp(GnpParams(400, 8.0 / 400, 2))
    result = percolate(g, range(40), 2)
    return density_witness(g, result, (40 + result.active_count) // 2)


# blake2b (16-byte) digests of json.dumps(obj.to_json_dict(), sort_keys=True):
# they pin every key and value of the JSON the CLI prints for each kind of trace.
PINNED_JSON = {
    "staged_trace": (_staged_trace, "87164887ba95d435e8706ac77cb1554f"),
    "fallback_trace": (_fallback_trace, "ff9713b9721904ff229f309a30697a97"),
    "exact_result": (_exact_result, "44fa1f53da7d7c2952d534e8ebfffbb0"),
    "density_witness": (_density_report, "ad761cd176a96179570b62a5d5e00541"),
}


@pytest.mark.parametrize("name", sorted(PINNED_JSON))
def test_json_dicts_are_pinned(name):
    make, digest = PINNED_JSON[name]
    text = json.dumps(make().to_json_dict(), sort_keys=True)
    assert hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest() == digest
