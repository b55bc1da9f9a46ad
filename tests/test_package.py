"""The package namespace: what ``from flateta import *`` exports."""

import flateta


def test_all_lists_each_name_once():
    assert len(set(flateta.__all__)) == len(flateta.__all__)


def test_all_names_resolve():
    missing = [name for name in flateta.__all__ if not hasattr(flateta, name)]
    assert missing == []
    namespace = {}
    exec("from flateta import *", namespace)
    assert set(flateta.__all__) <= set(namespace)
