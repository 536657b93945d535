"""The three benchmark workloads, each a closed loop with one client.

A workload builds its inputs from the seed once, then runs passes over
them.  One pass yields a latency for every operation (a message or a
fuzz case), the pass's timed seconds, and the operations it attempted
and got wrong.  Every verdict is checked against a reference that does
not come from foltl's monitor or automaton: a hand-derived verdict
sequence for the monitor workloads, ``OracleEvaluator`` for the fuzz
corpus.
"""
from __future__ import annotations

import contextlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import foltl
import foltl.acceptance as acceptance
import foltl.automaton as automaton_module
import foltl.cli as cli
import foltl.formula as formula_module
import foltl.monitor as monitor
from foltl.automaton import EMPTY_VALUATION
from foltl.events import message_from_obj
from foltl.gen import GenBounds, case_rng, gen_formula, gen_lasso

_clock = time.perf_counter

# The source tree foltl was imported from; children import the same one.
SRC = str(Path(foltl.__file__).resolve().parents[1])

# Every request is eventually acknowledged, and no message carries a="c".
FORMULA = (
    '(G forall x in "/m/req" : F exists y in "/m/ack" : y = x) '
    '& G forall z in "/m/a" : z != "c"'
)

# The fuzz corpus is the one ROADMAP's d4q3 baseline names.  It stays
# fixed whatever --seed is: its slowest case alone sets the tail, and a
# corpus drawn per seed has a slowest case anywhere from 20 ms to over
# a second, so the tail could not be compared between runs.
FUZZ_CORPUS_SEED = 42
FUZZ_BOUNDS = GenBounds(max_depth=4, max_quantifiers=3)

# A child that outlives this is killed and its pass counted as failed.
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Sizes:
    backlog_pending: int = 100
    backlog_timed: int = 1000  # p99 needs >= 1000 samples
    stream_pending: int = 5
    stream_messages: int = 10_000
    fuzz_cases: int = 1000


@dataclass
class PassResult:
    latencies: list[float]  # seconds, one per operation, in operation order
    seconds: float  # the pass's timed wall time
    attempted: int
    failed: int
    child_rss_mb: float | None = None  # peak RSS of the pass's subprocess


def request_ack_objects(seed: int, tag: str, pending: int, count: int) -> list[dict]:
    """``count`` messages keeping exactly ``pending`` requests unacknowledged.

    Message i requests id i and acknowledges id i - pending.  Every
    message carries an ``a`` value other than "c" except the last, which
    carries "c" and so refutes the formula.
    """
    rng = random.Random(f"{seed}:{tag}")
    ids = [f"{n:08x}" for n in rng.sample(range(16**8), count)]
    objects = []
    for i in range(count):
        body = {"req": ids[i], "a": rng.choice("abde")}
        if i >= pending:
            body["ack"] = ids[i - pending]
        objects.append({"m": body})
    objects[-1]["m"]["a"] = "c"
    return objects


def expected_verdicts(count: int) -> list[str]:
    """Hand-derived: requests stay pending and G never discharges, so every
    prefix is INCONCLUSIVE until the a="c" message makes it FALSE."""
    return ["INCONCLUSIVE"] * (count - 1) + ["FALSE"]


def _span(tracer, name: str):
    """A span around the benchmark's own call into foltl, when tracing."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def compile_formula(text: str):
    return automaton_module.build_automaton(formula_module.to_nnf(formula_module.parse(text)))


class Workload:
    name: str
    setup_formula: str | None  # compiled in set-up; None counts the import only
    ops_per_pass: int

    def run_pass(self, tracer=None) -> PassResult:
        raise NotImplementedError

    def trace_pass(self, tracer=None) -> PassResult:
        """The pass a traced run compares, once untraced and once traced."""
        return self.run_pass(tracer)


class MonitorBacklog(Workload):
    """In-process ``step`` calls at a constant backlog of pending requests."""

    name = "monitor_backlog"
    setup_formula = FORMULA

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.warmup = sizes.backlog_pending
        self.ops_per_pass = sizes.backlog_timed
        count = self.warmup + self.ops_per_pass
        objects = request_ack_objects(seed, self.name, sizes.backlog_pending, count)
        self.messages = [message_from_obj(obj) for obj in objects]
        self.expected = expected_verdicts(count)

    def run_pass(self, tracer=None) -> PassResult:
        automaton = compile_formula(FORMULA)
        configuration = monitor.initial_configuration(automaton)
        latencies: list[float] = []
        failed = attempted = 0
        timed_from = 0.0
        for index, message in enumerate(self.messages):
            if index == self.warmup:
                timed_from = _clock()
            if tracer is not None:
                tracer.current_request = index
            attempted += 1
            started = _clock()
            try:
                configuration = monitor.step(automaton, configuration, message)
            except Exception as err:  # a crash is a failed operation, reported below
                print(f"{self.name}: message {index}: {err!r}", file=sys.stderr)
                failed += 1
                break
            elapsed = _clock() - started
            if index >= self.warmup:
                latencies.append(elapsed)
            if str(monitor.verdict(configuration)) != self.expected[index]:
                failed += 1
        return PassResult(latencies, _clock() - timed_from, attempted, failed)


# The CLI as a user runs it, plus one clock read per step so that the
# parent can recover per-message latency; the stamps go to a side file.
_STAMPED_CLI = """\
import os, time
from array import array
import foltl.cli
stamps = array("d")
step = foltl.cli.step
def stamped_step(*args):
    stamps.append(time.perf_counter())
    return step(*args)
foltl.cli.step = stamped_step
try:
    foltl.cli.entry()
finally:
    stamps.append(time.perf_counter())
    with open(os.environ["PERFBENCH_STAMPS"], "wb") as handle:
        stamps.tofile(handle)
"""


class CliStream(Workload):
    """``foltl monitor`` as a subprocess over a JSON Lines file."""

    name = "cli_stream"
    setup_formula = FORMULA

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.ops_per_pass = sizes.stream_messages
        self.workdir = workdir
        self.formula_path = workdir / "formula.ltl"
        self.trace_path = workdir / "trace.jsonl"
        self.formula_path.write_text(FORMULA + "\n", encoding="utf-8")
        objects = request_ack_objects(seed, self.name, sizes.stream_pending, self.ops_per_pass)
        self.trace_path.write_text(
            "".join(json.dumps(obj, separators=(",", ":")) + "\n" for obj in objects),
            encoding="utf-8",
        )
        self.expected = expected_verdicts(self.ops_per_pass)
        self.expected_stdout = (
            "".join(f"{index}\t{value}\n" for index, value in enumerate(self.expected))
            + "RESULT FALSE\n"
        ).encode()

    def _argv(self) -> list[str]:
        return ["monitor", "--formula", str(self.formula_path), "--trace", str(self.trace_path)]

    def _failures(self, stdout: bytes, status: int) -> int:
        """0 when stdout is byte-equal to the expectation and the exit status
        is 1 (FALSE); otherwise the wrong or missing verdict lines plus one."""
        if stdout == self.expected_stdout and status == 1:
            return 0
        lines = stdout.decode(errors="replace").split("\n")
        return 1 + sum(
            1
            for index, value in enumerate(self.expected)
            if index >= len(lines) or lines[index] != f"{index}\t{value}"
        )

    def run_pass(self, tracer=None) -> PassResult:
        stamps_path = self.workdir / "stamps.bin"
        stdout_path = self.workdir / "stdout.txt"
        stderr_path = self.workdir / "stderr.txt"
        stamps_path.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=SRC, PERFBENCH_STAMPS=str(stamps_path))
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            started = _clock()
            child = subprocess.Popen(
                [sys.executable, "-c", _STAMPED_CLI, *self._argv()],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env,
            )
            watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                _, wait_status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
            seconds = _clock() - started
        child.returncode = os.waitstatus_to_exitcode(wait_status)
        failed = self._failures(stdout_path.read_bytes(), child.returncode)
        stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
        if stderr:
            print(f"{self.name}: stderr: {stderr[-500:]}", file=sys.stderr)
            failed += 1
        stamps = array("d")
        if stamps_path.exists():
            stamps.frombytes(stamps_path.read_bytes())
        if len(stamps) != self.ops_per_pass + 1:
            failed += 1
        latencies = [later - earlier for earlier, later in zip(stamps, stamps[1:])]
        return PassResult(
            latencies, seconds, self.ops_per_pass + 1, failed, usage.ru_maxrss / 1024
        )

    def trace_pass(self, tracer=None) -> PassResult:
        """``foltl.cli.main`` in-process, since spans cannot cross a process."""
        stdout_path = self.workdir / "stdout.txt"
        with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            started = _clock()
            with _span(tracer, "cli.main"):
                status = cli.main(self._argv())
            seconds = _clock() - started
        failed = self._failures(stdout_path.read_bytes(), status)
        return PassResult([], seconds, self.ops_per_pass + 1, failed)


class AcceptFuzz(Workload):
    """Compile and decide each case of a fixed fuzz corpus, in an order drawn from the seed."""

    name = "accept_fuzz"
    setup_formula = None

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.ops_per_pass = sizes.fuzz_cases
        self.cases = []
        for index in range(sizes.fuzz_cases):
            rng = case_rng(FUZZ_CORPUS_SEED, "case", index)
            formula = gen_formula(rng, FUZZ_BOUNDS)
            self.cases.append((formula, gen_lasso(rng, FUZZ_BOUNDS)))
        self.order = random.Random(f"{seed}:{self.name}").sample(range(len(self.cases)), len(self.cases))

    def reference(self, index: int, tracer=None) -> bool:
        """The brute-force oracle on the formula as generated, before normal form."""
        formula, lasso = self.cases[index]
        with _span(tracer, "acceptance.oracle"):
            evaluator = acceptance.OracleEvaluator(lasso)
            holds = evaluator.holds(EMPTY_VALUATION, formula)
        if tracer is not None:
            tracer.observe("oracle.iterations", evaluator.iterations)
        return holds

    def run_pass(self, tracer=None) -> PassResult:
        latencies = [0.0] * len(self.cases)
        failed = 0
        for index in self.order:
            formula, lasso = self.cases[index]
            if tracer is not None:
                tracer.current_request = index
            started = _clock()
            try:
                automaton = automaton_module.build_automaton(formula_module.to_nnf(formula))
                accepted = acceptance.lasso_accepts(automaton, lasso)
            except Exception as err:  # ResourceLimitError included: a failed case
                print(f"{self.name}: case {index}: {err!r}", file=sys.stderr)
                failed += 1
                continue
            latencies[index] = _clock() - started
            if accepted != self.reference(index, tracer):
                failed += 1
        return PassResult(latencies, sum(latencies), len(self.cases), failed)


WORKLOADS = {cls.name: cls for cls in (MonitorBacklog, CliStream, AcceptFuzz)}
