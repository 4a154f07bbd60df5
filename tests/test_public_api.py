"""API-surface tests: every public export is importable and documented.

A downstream user navigates the library through ``repro.<package>``
namespaces; these tests pin the advertised surface so refactors cannot
silently drop exports or documentation.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.xmlq",
    "repro.net",
    "repro.dht",
    "repro.storage",
    "repro.core",
    "repro.workload",
    "repro.sim",
    "repro.analysis",
    "repro.rpc",
    "repro.loadgen",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestPackageSurface:
    def test_package_has_docstring(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and len(package.__doc__.strip()) > 40

    def test_all_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__") and package.__all__
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_exported_objects_documented(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{package_name}.{name} lacks a docstring"

    def test_no_duplicate_exports(self, package_name):
        package = importlib.import_module(package_name)
        assert len(package.__all__) == len(set(package.__all__))


class TestPublicClassesDocumented:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_public_methods_documented(self, package_name):
        """Every public method of every exported class has a docstring."""
        package = importlib.import_module(package_name)
        for name in package.__all__:
            obj = getattr(package, name)
            if not inspect.isclass(obj):
                continue
            for method_name, method in inspect.getmembers(
                obj, predicate=inspect.isfunction
            ):
                if method_name.startswith("_"):
                    continue
                if method.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited from elsewhere
                assert method.__doc__, (
                    f"{package_name}.{name}.{method_name} lacks a docstring"
                )


def test_version_is_exposed():
    import repro

    assert repro.__version__.count(".") == 2
