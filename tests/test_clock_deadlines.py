"""The clock's deadline rule against the polling clock it replaced.

:class:`PollingClock` restates the old listener protocol: every listener
is called after every advance and looks for due work itself.  The real
:class:`~repro.hw.clock.Clock` calls its listeners only when an advance
reaches the earliest deadline one of them asked for.  Random listeners,
work items and ``consume`` / ``advance_to`` / ``wake_at`` steps run on
both; each listener must do its work at exactly the advances where its
polling twin finds work, in the same order, at the same ``now_ns``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.hw.clock import Clock


class PollingClock:
    """The oracle: a listener is called after every advance."""

    def __init__(self) -> None:
        self.now_ns = 0
        self.listeners: list = []
        self.kernel_listeners: list = []

    def on_advance(self, callback, *, kernel: bool = False) -> None:
        self.listeners.append(callback)
        if kernel:
            self.kernel_listeners.append(callback)

    def drop_kernel_listeners(self) -> None:
        self.listeners = [cb for cb in self.listeners if cb not in self.kernel_listeners]
        self.kernel_listeners = []

    def consume(self, ns: int) -> None:
        self.now_ns += ns
        for callback in list(self.listeners):
            callback(self.now_ns)

    def advance_to(self, t_ns: int) -> None:
        if t_ns > self.now_ns:
            self.consume(t_ns - self.now_ns)


class Listener:
    """Work items due at absolute times; a call does the due ones and
    logs ``(name, now_ns, items)``.  On the deadline clock it re-arms for
    the earliest item left, as every real listener must."""

    def __init__(self, name: int, clock, log: list, *, arms: bool) -> None:
        self.name, self.clock, self.log, self.arms = name, clock, log, arms
        self.work: list[int] = []

    def give(self, due_ns: int) -> None:
        self.work.append(due_ns)
        if self.arms:
            self.clock.wake_at(due_ns)

    def __call__(self, now_ns: int) -> None:
        due = sorted(t for t in self.work if t <= now_ns)
        if due:
            self.work = [t for t in self.work if t > now_ns]
            self.log.append((self.name, now_ns, due))
        if self.arms and self.work:
            self.clock.wake_at(min(self.work))


step_st = st.one_of(
    st.tuples(st.just("consume"), st.one_of(st.just(0), st.integers(0, 50), st.integers(0, 2_000))),
    st.tuples(st.just("advance_to"), st.integers(-100, 2_000)),  # relative; may lie in the past
    st.tuples(st.just("give"), st.integers(0, 3), st.integers(0, 1_500)),  # listener, delay
    st.tuples(st.just("wake_at"), st.integers(-100, 1_500)),  # a deadline nobody has work for
    # Exactly onto the k-th earliest due item, by consume or advance_to.
    st.tuples(st.just("reach"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("drop"),),
)


@given(
    kernel=st.lists(st.booleans(), min_size=1, max_size=4),
    program=st.lists(step_st, min_size=1, max_size=60),
)
@settings(max_examples=300, deadline=None)
def test_deadline_wakes_match_the_polling_oracle(kernel, program):
    real, oracle = Clock(), PollingClock()
    real_log: list = []
    oracle_log: list = []
    pairs = []
    for name, owned_by_kernel in enumerate(kernel):
        ours = Listener(name, real, real_log, arms=True)
        theirs = Listener(name, oracle, oracle_log, arms=False)
        real.on_advance(ours, kernel=owned_by_kernel)
        oracle.on_advance(theirs, kernel=owned_by_kernel)
        pairs.append((ours, theirs))
    for step in program:
        op = step[0]
        if op == "consume":
            real.consume(step[1])
            oracle.consume(step[1])
        elif op == "advance_to":
            real.advance_to(real.now_ns + step[1])
            oracle.advance_to(oracle.now_ns + step[1])
        elif op == "give":
            ours, theirs = pairs[step[1] % len(pairs)]
            ours.give(real.now_ns + step[2])
            theirs.give(oracle.now_ns + step[2])
        elif op == "wake_at":
            real.wake_at(real.now_ns + step[1])
        elif op == "reach":
            due = sorted(t for _, theirs in pairs for t in theirs.work if t > oracle.now_ns)
            if due:
                t = due[min(step[1], len(due) - 1)]
                for clock in (real, oracle):
                    if step[2]:
                        clock.consume(t - clock.now_ns)
                    else:
                        clock.advance_to(t)
        else:
            real.drop_kernel_listeners()
            oracle.drop_kernel_listeners()
        assert real.now_ns == oracle.now_ns
        assert real_log == oracle_log
