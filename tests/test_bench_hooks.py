"""The names the benchmark's tracer patches must exist in foltl.

perfbench/spans.py wraps each PATCHES target it finds and skips the rest,
so a renamed target silently reads 0 in its per-layer metrics.
"""
import importlib.util
import pathlib
from types import ModuleType

import foltl.automaton
import foltl.monitor
from foltl.automaton import Automaton
from foltl.events import message_from_obj
from foltl.formula import parse
from foltl.monitor import initial_configuration, step

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# Hooks for code that is already gone (ROADMAP item 1 deletes them).
DEAD = {"foltl.cli.to_nnf", "foltl.automaton.to_dnf"}


def _qualified(target) -> str:
    if isinstance(target, ModuleType):
        return target.__name__
    return f"{target.__module__}.{target.__qualname__}"


def test_every_patch_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # The tracer looks each name up the same way, in the target's own namespace.
    missing = {
        f"{_qualified(target)}.{attribute}"
        for target, attribute, _ in spans.PATCHES
        if vars(target).get(attribute) is None
    }
    assert missing <= DEAD


def test_build_automaton_is_the_class_itself():
    # The tracer times builds through this name; a wrapper around the
    # class would add a call frame to every build it times.
    assert foltl.build_automaton is Automaton
    assert foltl.automaton.build_automaton is Automaton


def test_step_conjoins_and_disjoins_through_the_monitors_names(monkeypatch):
    # The tracer counts dnf_and and dnf_or as foltl.monitor sees them, so
    # these counts are the monitor's calls only: one dnf_and per
    # conjunct and one dnf_or per step, none from inside delta.
    calls = []
    for name in ("dnf_and", "dnf_or"):
        real = getattr(foltl.monitor, name)
        monkeypatch.setattr(
            foltl.monitor, name, lambda dnfs, name=name, real=real: calls.append(name) or real(dnfs)
        )
    automaton = Automaton(parse('G forall x in "/m/a" : (x = "a" & X x = "a")'))
    configuration = initial_configuration(automaton)
    configuration = step(automaton, configuration, message_from_obj({"m": {"a": ["a", "b"]}}))
    assert calls == ["dnf_and", "dnf_or"]
