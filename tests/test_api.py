from collections import Counter

import locdom


def test_public_names_resolve_once():
    assert [name for name in locdom.__all__ if not hasattr(locdom, name)] == []
    assert [name for name, k in Counter(locdom.__all__).items() if k > 1] == []
