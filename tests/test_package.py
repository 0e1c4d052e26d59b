"""The package's public names."""

import paretosimplex
from paretosimplex import core, efficiency, enumeration, lp, oracle, scalarize

MODULES = (core, efficiency, enumeration, lp, oracle, scalarize)


def test_the_package_exports_each_modules_names_once():
    names = [name for module in MODULES for name in module.__all__]
    assert paretosimplex.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(paretosimplex, name) is getattr(module, name), (module.__name__, name)
    assert "row_key" not in names
    assert not hasattr(paretosimplex, "row_key")
    assert "bicheck" in names
    for gone in ("bicriterion_ratios", "bicriterion_full_check", "NumericalBreakdownError"):
        assert gone not in names and not hasattr(paretosimplex, gone)
    assert not hasattr(lp, "NumericalBreakdownError")
    assert len(names) == 47
