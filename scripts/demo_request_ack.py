"""Walk the request/acknowledgement property through the whole stack.

Compiles the formula, streams a finite trace through the monitor, then
decides two lasso continuations with the automaton and with the brute
force oracle.  Everything is printed, nothing is asserted; run it to
see the pieces fit together.
"""
from foltl import (
    EMPTY_VALUATION,
    build_automaton,
    initial_configuration,
    lasso_accepts,
    load_lasso,
    load_trace,
    oracle_eval,
    parse,
    step,
    verdict,
)

FORMULA = 'G forall x in "/m/req" : F exists y in "/m/ack" : y = x'

TRACE = """\
{"m":{"req":"r1"}}
{"m":{"ack":"r1","req":"r2"}}
"""

# r2 is acknowledged inside the loop vs. r1 never acknowledged at all
DISCHARGED = '{"prefix":[{"m":{"req":"r1"}},{"m":{"ack":"r1","req":"r2"}}],"loop":[{"m":{"ack":"r2"}},{"m":{}}]}'
DROPPED = '{"prefix":[{"m":{"req":"r1"}}],"loop":[{"m":{"req":"r9","ack":"r9"}}]}'


def main() -> None:
    formula = parse(FORMULA)
    automaton = build_automaton(formula)

    print(f"formula   {FORMULA}")
    print(f"states    {len(automaton.states)} ({len(automaton.accepting)} accepting)")
    print()

    print("monitoring the finite trace:")
    configuration = initial_configuration(automaton)
    for index, message in enumerate(load_trace(TRACE)):
        configuration = step(automaton, configuration, message)
        obligations = sum(len(c) for c in configuration.dnf.conjuncts)
        print(f"  message {index}: {verdict(configuration)} ({obligations} open obligations)")
    print()

    for title, text in (("discharged", DISCHARGED), ("dropped", DROPPED)):
        lasso = load_lasso(text)
        by_automaton = lasso_accepts(automaton, lasso)
        by_oracle = oracle_eval(EMPTY_VALUATION, formula, lasso)
        print(f"lasso {title:<10} automaton={by_automaton} oracle={by_oracle}")


if __name__ == "__main__":
    main()
