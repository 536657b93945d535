"""Impartial three-valued monitoring of finite traces.

A configuration is the disjunction of surviving obligation conjuncts.
Consuming a message rewrites every obligation through the automaton's
transition function; a conjunct that discharges completely witnesses
satisfaction on every infinite extension, while an empty disjunction
witnesses violation on every extension.  Anything in between stays
INCONCLUSIVE, decided verdicts never change afterwards.
"""
from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .automaton import (
    Automaton,
    dnf_and,
    dnf_or,
)
from .events import Message
from .formula import Formula, Record


class Verdict(Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    INCONCLUSIVE = "INCONCLUSIVE"

    def __str__(self) -> str:
        return self.value


# A configuration is two records deep, configuration.dnf.conjuncts,
# only because perfbench's traced step reads that path; everywhere
# below the monitor a DNF is the plain frozenset.
class Disjunction(Record, namedtuple("Disjunction", "conjuncts")):  # conjuncts: Dnf
    __slots__ = ()


class Configuration(Record, namedtuple("Configuration", "dnf")):  # dnf: Disjunction
    __slots__ = ()


def initial_configuration(automaton: Automaton) -> Configuration:
    return Configuration(Disjunction(frozenset({frozenset({automaton.initial})})))


def step(automaton: Automaton, configuration: Configuration, message: Message) -> Configuration:
    """Consume one message, read as one letter.

    Each conjunct conjoins the rewrites of its own obligations: rewrites
    with a single conjunct, the usual case for a pending backlog, merge
    by plain union and only the rest distribute.  Across conjuncts the
    results are disjoined and reduced to an antichain.  The decided
    configurations are fixed points: an empty conjunct stays an empty
    conjunct and an empty disjunction stays empty.
    """
    conjuncts = configuration.dnf.conjuncts
    letter = automaton.letter(message)
    branches = [dnf_and([automaton.delta(o, letter) for o in conjunct]) for conjunct in conjuncts]
    return Configuration(Disjunction(dnf_or(branches)))


def verdict(configuration: Configuration) -> Verdict:
    conjuncts = configuration.dnf.conjuncts
    if frozenset() in conjuncts:
        return Verdict.TRUE
    if not conjuncts:
        return Verdict.FALSE
    return Verdict.INCONCLUSIVE


def monitor_trace(formula: Formula, trace: tuple[Message, ...]) -> list[Verdict]:
    """Verdict after each consumed message, for a formula of any form."""
    automaton = Automaton(formula)
    configuration = initial_configuration(automaton)
    verdicts: list[Verdict] = []
    for message in trace:
        configuration = step(automaton, configuration, message)
        verdicts.append(verdict(configuration))
    return verdicts
