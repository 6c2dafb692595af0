"""The package's public names: every export resolves, so that removing a
function cannot leave a dangling name that breaks ``from mmzi import *``."""

import mmzi


def test_every_exported_name_resolves():
    assert len(set(mmzi.__all__)) == len(mmzi.__all__)
    missing = [name for name in mmzi.__all__ if not hasattr(mmzi, name)]
    assert missing == []
    namespace = {}
    exec("from mmzi import *", namespace)
    assert set(mmzi.__all__) <= set(namespace)
