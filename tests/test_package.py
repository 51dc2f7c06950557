import types

import pytest

import curvecast


def test_exports_resolve_once():
    assert len(curvecast.__all__) == len(set(curvecast.__all__))
    missing = [name for name in curvecast.__all__ if not hasattr(curvecast, name)]
    assert missing == []


def test_every_public_name_is_exported():
    public = {name for name, value in vars(curvecast).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(curvecast.__all__)


def test_star_import():
    namespace = {}
    exec("from curvecast import *", namespace)
    assert set(curvecast.__all__) <= namespace.keys()


def test_the_package_exports_one_fit():
    # An anchored fit is fit_power_law(points, anchor=...); the anchoring
    # helpers stay in their module, where extend_trace calls them.
    import curvecast.anchoring

    for name in ("fit_anchored_trend", "next_canonical_anchor"):
        assert name not in curvecast.__all__
        with pytest.raises(ImportError):
            exec(f"from curvecast import {name}", {})
        assert callable(getattr(curvecast.anchoring, name))
