"""The traced benchmark run (``perfbench/run.py --trace 1``) looks up every
name in its ``TRACED_FUNCTIONS`` list; renaming, removing or moving one of
those functions makes that run crash, so the list is checked here."""

import ast
import importlib
import inspect
import pathlib

RUN_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def traced_names() -> tuple[str, ...]:
    # parsed, not imported: importing run.py sets thread environment variables
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED_FUNCTIONS assignment in {RUN_PY}")


def test_traced_names_are_public_functions_of_their_module():
    names = traced_names()
    assert names
    for dotted in names:
        layer, name = dotted.split(".")
        module_name = f"entropic_uncertainty.{layer}"
        fn = getattr(importlib.import_module(module_name), name, None)
        assert not name.startswith("_"), dotted
        assert inspect.isfunction(fn), dotted
        assert fn.__module__ == module_name, dotted
