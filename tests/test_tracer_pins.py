"""Each import in ``quadplate`` that is kept only for the benchmark's
tracer (marked ``# not called; the benchmark's tracer wraps it``) names a
target of ``perfbench/spans.py``'s ``LAYERS`` and is used nowhere else in
its module.  When the tracer drops a layer, this names the import to
delete."""

import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadplate"
PIN = re.compile(r"^\s*(\w+),\s*# not called; the benchmark's tracer wraps it",
                 re.MULTILINE)


def traced_targets():
    """The (module, attribute) pairs the tracer wraps, read from its
    ``LAYERS`` without installing it."""
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {target for targets in spans.LAYERS.values()
            for target in targets}


PINS = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
        for name in PIN.findall(path.read_text(encoding="utf-8"))]


def test_every_pin_is_parsed():
    marks = sum(path.read_text(encoding="utf-8").count(
        "the benchmark's tracer wraps it") for path in PACKAGE.glob("*.py"))
    assert len(PINS) == marks > 0


@pytest.mark.parametrize("module, name", PINS,
                         ids=[f"{module}.{name}" for module, name in PINS])
def test_pinned_import_is_traced_and_unused(module, name):
    assert (f"quadplate.{module}", name) in traced_targets(), \
        f"the tracer no longer wraps {name} in {module}.py: delete its import"
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert len(re.findall(rf"\b{name}\b", source)) == 1, \
        f"{name} is used in {module}.py; its import needs no pin"
