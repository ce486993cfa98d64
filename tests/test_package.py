"""The package's export list."""

import locmst


def test_export_list_matches_the_imports():
    # every listed name resolves and is listed once, and every public
    # function or class the package imports from its modules is listed, so
    # the import block and __all__ cannot drift apart
    names = locmst.__all__
    assert len(set(names)) == len(names)
    for name in names:
        getattr(locmst, name)
    imported = {
        name
        for name, value in vars(locmst).items()
        if not name.startswith("_")
        and callable(value)
        and getattr(value, "__module__", "").startswith("locmst.")
    }
    assert imported == set(names)
