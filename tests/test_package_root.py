"""The package root re-exports a fixed, small set of names; everything else is
imported from its own module, so the root must not grow back silently."""

import inspect

import entropic_uncertainty


def test_root_exports_exactly_all():
    names = entropic_uncertainty.__all__
    assert len(names) == len(set(names)) == 20
    for name in names:
        assert getattr(entropic_uncertainty, name, None) is not None, name
    public = {
        name
        for name, value in vars(entropic_uncertainty).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert public == set(names)
