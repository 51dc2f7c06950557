import curvecast


def test_exports_resolve_once():
    assert len(curvecast.__all__) == len(set(curvecast.__all__))
    missing = [name for name in curvecast.__all__ if not hasattr(curvecast, name)]
    assert missing == []
