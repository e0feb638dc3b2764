"""Bounded-trace parity: no verdict reads a kept trace record.

The differential oracle and the resilience worlds read what their
verdicts need from trace subscriptions while the simulation runs, so
the number of records a trace keeps cannot change a verdict.  Each
property below runs one system three ways — with the traces the code
builds, with those traces bounded by a small ``max_records``, and
bounded while keeping every category — and requires identical verify
digests, fuzz signature tokens and resilience verdict dicts, over
generated and fuzzed (mutated) systems.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.verify.oracle as oracle
import repro.verify.resilience as resilience
from repro.sim.trace import Trace
from repro.verify.fuzz import _fuzz_worker
from repro.verify.generator import generate
from repro.verify.mutate import mutate
from repro.verify.oracle import VerificationReport, verify_system

#: The smallest bound a trace accepts.
SMALL = 4


def _bounded(keep_all: bool):
    def factory(*args, **kwargs):
        kwargs["max_records"] = SMALL
        if keep_all:
            kwargs["keep"] = None
        return Trace(*args, **kwargs)
    return factory


VARIANTS = (_bounded(keep_all=False), _bounded(keep_all=True))


def _each_way(run):
    """``run()`` with the default traces, then under each bounded
    variant of the oracle's and resilience's ``Trace``."""
    results = [run()]
    for factory in VARIANTS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "Trace", factory)
            patch.setattr(resilience, "Trace", factory)
            results.append(run())
    return results


def _system(seed: int, fuzzed: bool):
    """A generated small system, or a three-step mutant of one (the
    fuzzer's mutators, fault-scenario ones included)."""
    system = generate(seed, "small")
    if fuzzed:
        rng = random.Random(seed)
        for _ in range(3):
            system, _name = mutate(system, rng)
    return system


SYSTEMS = st.tuples(st.integers(0, 2 ** 16), st.booleans())


@settings(max_examples=6, deadline=None)
@given(case=SYSTEMS)
def test_verify_digest_ignores_trace_retention(case):
    system = _system(*case)

    def digest():
        verdict = verify_system(system)
        return VerificationReport(case[0], 1, "small", [verdict]).digest()

    default, *bounded = _each_way(digest)
    assert bounded == [default] * len(VARIANTS)


@settings(max_examples=6, deadline=None)
@given(case=SYSTEMS)
def test_fuzz_signature_ignores_trace_retention(case):
    system = _system(*case)
    default, *bounded = _each_way(
        lambda: _fuzz_worker(None, (system, None, None), case[0]))
    assert default["tokens"]
    assert bounded == [default] * len(VARIANTS)


@settings(max_examples=4, deadline=None)
@given(case=SYSTEMS)
def test_resilience_verdicts_ignore_trace_retention(case):
    system = _system(*case)
    system.faults = (list(system.faults)
                     + resilience.standard_scenarios(system))

    def verdicts():
        return [v.to_dict() for v in resilience.verify_resilience(system)]

    default, *bounded = _each_way(verdicts)
    assert default
    assert bounded == [default] * len(VARIANTS)
