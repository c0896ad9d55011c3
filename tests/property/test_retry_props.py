"""Property tests for the resilience layer's retry policies and fault
plans (Hypothesis-driven):

- **Backoff bounds**: the raw schedule is monotone non-decreasing and
  capped at ``max_delay``; every jittered delay stays within
  ``raw * (1 ± jitter)`` and is non-negative.
- **Deterministic jitter**: a fixed (seed, token) reproduces the exact
  backoff schedule; changing the seed or token is allowed to change it.
- **Attempt-count invariants**: ``call_with_retry`` executes the
  function exactly ``min(failures + 1, max_attempts)`` times for
  retryable failures, exactly once for fatal ones, and sleeps exactly
  the policy's schedule prefix between attempts.
- **Classification**: transient faults retry; programming errors and
  the permanent ``OSError`` subclasses (a missing, mistyped or unreadable
  path) do not, under every policy.
- **Fault-plan round-trips**: ``parse_fault_plan(format_fault_plan(p))``
  is the identity on well-formed plans, and malformed plan strings raise
  ``ValueError`` rather than installing silently-wrong chaos.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience.faults import FaultSpec, InjectedFault, parse_fault_plan
from repro.resilience.retry import PERMANENT_OS_ERRORS, RetryPolicy, call_with_retry
from tests.oracles import format_fault_plan

# -- strategies ---------------------------------------------------------

policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=8),
    base_delay=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    growth=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    max_delay=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    jitter=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)

tokens = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=16
)

#: Field values that survive the clause grammar: no separators (";" ","),
#: no "=", no whitespace (the parser strips around clause boundaries).
_MATCH_ALPHABET = st.characters(
    min_codepoint=33, max_codepoint=126, exclude_characters=";,=| "
)

#: Per-action extras: the serialized form only carries fields relevant
#: to the action (a `raise` clause has no stall time), so round-trip
#: specs must keep irrelevant fields at their defaults.
_ACTION_EXTRAS = st.one_of(
    st.fixed_dictionaries(
        {
            "action": st.just("raise"),
            "exception": st.sampled_from(
                ["InjectedFault", "OSError", "TimeoutError", "ValueError"]
            ),
        }
    ),
    st.fixed_dictionaries(
        {
            "action": st.just("stall"),
            "stall_seconds": st.floats(
                min_value=0.0, max_value=2.0, allow_nan=False
            ),
        }
    ),
    st.fixed_dictionaries({"action": st.just("kill")}),
)

_SELECTOR_FIELDS = st.fixed_dictionaries(
    {
        "site": st.sampled_from(
            ["sweep.compute", "worker.task", "cache.read", "cache.write",
             "encoder.*", "sim.run"]
        ),
        "at": st.frozensets(
            st.integers(min_value=1, max_value=99), max_size=4
        ).map(lambda s: tuple(sorted(s))),
        "every": st.integers(min_value=0, max_value=12),
        "rate": st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        "seed": st.integers(min_value=0, max_value=999),
        "match": st.text(alphabet=_MATCH_ALPHABET, max_size=8),
        "max_triggers": st.integers(min_value=0, max_value=9),
    }
)

fault_specs = st.builds(
    lambda selectors, extras: FaultSpec(**selectors, **extras),
    selectors=_SELECTOR_FIELDS,
    extras=_ACTION_EXTRAS,
)


# -- backoff bounds -----------------------------------------------------

class TestBackoffBounds:
    @given(policy=policies)
    def test_raw_schedule_monotone_and_capped(self, policy):
        raws = [policy.raw_delay(a) for a in range(1, policy.max_attempts + 1)]
        assert all(d >= 0.0 for d in raws)
        assert all(d <= policy.max_delay for d in raws)
        assert all(b >= a for a, b in zip(raws, raws[1:]))

    @given(policy=policies, token=tokens)
    def test_jitter_stays_within_band(self, policy, token):
        for attempt in range(1, policy.max_attempts + 1):
            raw = policy.raw_delay(attempt)
            delay = policy.backoff_delay(attempt, token)
            assert delay >= 0.0
            lo = raw * (1.0 - policy.jitter)
            hi = raw * (1.0 + policy.jitter)
            assert lo - 1e-12 <= delay <= hi + 1e-12

    @given(policy=policies)
    def test_schedule_length_is_attempts_minus_one(self, policy):
        assert len(policy.schedule("t")) == policy.max_attempts - 1


class TestDeterministicJitter:
    @given(policy=policies, token=tokens)
    def test_fixed_seed_reproduces_schedule(self, policy, token):
        again = RetryPolicy(
            max_attempts=policy.max_attempts,
            base_delay=policy.base_delay,
            growth=policy.growth,
            max_delay=policy.max_delay,
            jitter=policy.jitter,
            seed=policy.seed,
        )
        assert policy.schedule(token) == again.schedule(token)

    @given(policy=policies)
    def test_tokens_diversify_without_breaking_bounds(self, policy):
        """Distinct call sites may jitter differently, but both stay in
        the band (exact divergence is not required — zero jitter or zero
        delay collapses the band to a point)."""
        for token in ("cell:0", "cell:1"):
            for attempt in range(1, policy.max_attempts + 1):
                raw = policy.raw_delay(attempt)
                d = policy.backoff_delay(attempt, token)
                assert raw * (1 - policy.jitter) - 1e-12 <= d
                assert d <= raw * (1 + policy.jitter) + 1e-12


# -- attempt-count invariants ------------------------------------------

class TestAttemptCounts:
    @given(
        max_attempts=st.integers(min_value=1, max_value=6),
        failures=st.integers(min_value=0, max_value=8),
    )
    def test_retryable_failures_consume_the_budget_exactly(
        self, max_attempts, failures
    ):
        policy = RetryPolicy(
            max_attempts=max_attempts, base_delay=0.01, jitter=0.5, seed=3
        )
        calls = 0
        slept: list[float] = []

        def flaky():
            nonlocal calls
            calls += 1
            if calls <= failures:
                raise InjectedFault(f"boom {calls}")
            return "ok"

        if failures < max_attempts:
            result = call_with_retry(
                flaky, policy=policy, token="t", sleeper=slept.append
            )
            assert result == "ok"
            assert calls == failures + 1
        else:
            with pytest.raises(InjectedFault):
                call_with_retry(
                    flaky, policy=policy, token="t", sleeper=slept.append
                )
            assert calls == max_attempts
        # The sleeps are exactly the schedule prefix for the retries made.
        assert slept == policy.schedule("t")[: calls - 1]

    @given(max_attempts=st.integers(min_value=1, max_value=6))
    def test_fatal_exceptions_never_retry(self, max_attempts):
        policy = RetryPolicy(max_attempts=max_attempts, base_delay=0.0)
        calls = 0

        def broken():
            nonlocal calls
            calls += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            call_with_retry(broken, policy=policy, sleeper=lambda _d: None)
        assert calls == 1

    def test_success_means_one_call_no_sleep(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0)
        slept: list[float] = []
        assert (
            call_with_retry(lambda: 42, policy=policy, sleeper=slept.append)
            == 42
        )
        assert slept == []


#: Exceptions by whether the default policy retries them.
CLASSIFICATION = [
    (InjectedFault("chaos"), True),
    (TimeoutError(), True),
    (ConnectionError(), True),
    (ConnectionResetError(), True),
    (OSError(), True),
    (OSError(5, "I/O error"), True),
    (FileNotFoundError(), False),
    (NotADirectoryError(), False),
    (IsADirectoryError(), False),
    (PermissionError(), False),
    (ValueError(), False),
    (KeyError("k"), False),
    (RuntimeError(), False),
]


class TestClassification:
    @pytest.mark.parametrize(
        "exc, retryable", CLASSIFICATION, ids=[type(e).__name__ for e, _ in CLASSIFICATION]
    )
    def test_default_classification_table(self, exc, retryable):
        assert RetryPolicy().is_retryable(exc) is retryable

    @given(policy=policies, exc=st.sampled_from(PERMANENT_OS_ERRORS))
    def test_permanent_os_errors_fail_at_once_under_any_policy(self, policy, exc):
        calls = 0
        slept: list[float] = []

        def missing():
            nonlocal calls
            calls += 1
            raise exc("permanent")

        with pytest.raises(exc):
            call_with_retry(missing, policy=policy, sleeper=slept.append)
        assert calls == 1 and slept == []


# -- fault-plan round-trips --------------------------------------------

class TestFaultPlanRoundTrip:
    @settings(max_examples=200)
    @given(specs=st.lists(fault_specs, max_size=4))
    def test_format_parse_is_identity(self, specs):
        assert parse_fault_plan(format_fault_plan(specs)) == tuple(specs)

    @given(specs=st.lists(fault_specs, min_size=1, max_size=3))
    def test_canonical_form_is_a_fixed_point(self, specs):
        text = format_fault_plan(specs)
        assert format_fault_plan(parse_fault_plan(text)) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "=kill",                        # no site
            "sweep.compute,at=x",           # non-integer index
            "sweep.compute,at=0",           # indices are 1-based
            "sweep.compute,rate=1.5",       # rate out of [0, 1]
            "sweep.compute,raise=Nonsense",  # unknown exception
            "sweep.compute,raise=OSError,kill",  # two actions
            "sweep.compute,frobnicate=1",   # unknown field
            "sweep.compute,kill=yes",       # kill takes no value
        ],
    )
    def test_malformed_plans_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            parse_fault_plan(bad)

    def test_empty_and_whitespace_plans_are_empty(self):
        assert parse_fault_plan("") == ()
        assert parse_fault_plan(" ; ;; ") == ()
