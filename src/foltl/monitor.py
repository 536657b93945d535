"""Impartial three-valued monitoring of finite traces.

A configuration is the disjunction of surviving obligation conjuncts.
Consuming a message rewrites every obligation through the automaton's
transition function; a conjunct that discharges completely witnesses
satisfaction on every infinite extension, while an empty disjunction
witnesses violation on every extension.  Anything in between stays
INCONCLUSIVE, decided verdicts never change afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .automaton import (
    Automaton,
    Obligation,
    TransitionDnf,
    build_automaton,
    dnf_and,
    dnf_or,
)
from .events import Message, Trace
from .formula import Formula, to_nnf


class Verdict(Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    INCONCLUSIVE = "INCONCLUSIVE"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Configuration:
    dnf: TransitionDnf


def initial_configuration(automaton: Automaton) -> Configuration:
    return Configuration(TransitionDnf(frozenset({frozenset({automaton.initial})})))


def step(automaton: Automaton, configuration: Configuration, message: Message) -> Configuration:
    """Consume one message.

    Each obligation is rewritten once per message, however many
    conjuncts hold it.  Within a conjunct the rewrites are conjoined:
    rewrites with a single conjunct, the usual case for a pending
    backlog, merge by plain union and only the rest distribute.  Across
    conjuncts the results are disjoined and reduced to an antichain.
    The decided configurations are fixed points: an empty conjunct
    stays an empty conjunct and an empty disjunction stays empty.
    """
    cache: dict[Obligation, TransitionDnf] = {}

    def rewritten(obligation: Obligation) -> TransitionDnf:
        hit = cache.get(obligation)
        if hit is None:
            valuation, state = obligation
            hit = automaton.delta(valuation, state, message)
            cache[obligation] = hit
        return hit

    branches = [
        dnf_and(rewritten(obligation) for obligation in conjunct)
        for conjunct in configuration.dnf.conjuncts
    ]
    return Configuration(dnf_or(branches))


def verdict(configuration: Configuration) -> Verdict:
    if configuration.dnf.is_true():
        return Verdict.TRUE
    if configuration.dnf.is_false():
        return Verdict.FALSE
    return Verdict.INCONCLUSIVE


def monitor_trace(formula: Formula, trace: Trace) -> list[Verdict]:
    """Verdict after each consumed message; normal form is applied here."""
    automaton = build_automaton(to_nnf(formula))
    configuration = initial_configuration(automaton)
    verdicts: list[Verdict] = []
    for message in trace.messages:
        configuration = step(automaton, configuration, message)
        verdicts.append(verdict(configuration))
    return verdicts
