"""The package's exported names: each resolves and is listed once."""

import collections

import netalloc


def test_every_exported_name_resolves():
    missing = [name for name in netalloc.__all__ if not hasattr(netalloc, name)]
    assert missing == []


def test_every_exported_name_listed_once():
    counts = collections.Counter(netalloc.__all__)
    assert [name for name, k in counts.items() if k > 1] == []
