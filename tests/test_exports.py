"""The package's export list names each public object once."""

import pktsched


def test_all_names_resolve_once():
    names = pktsched.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(pktsched, name)]
    assert missing == []
