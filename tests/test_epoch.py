"""The epoch primitive: pin → publish → retire-on-drain, against a model.

:class:`~repro.engine.epoch.Epochs` is the one place the engine counts
pins, so its contract is checked here once for every owner: random
``pin(n)`` / ``release`` / ``publish`` interleavings against a plain
dict model, then two threads hammering one instance (under
``REPRO_LOCK_ORDER=1`` the borrowed lock is an instrumented one, so
``make test-lock-order`` sees every acquisition).
"""

import sys
import threading

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.engine.epoch import Epochs, Hold
from repro.engine.locking import named_lock


class EpochsMachine(RuleBasedStateMachine):
    """``Epochs`` against ``{version: [payload, pins]}`` plus a current."""

    def __init__(self):
        super().__init__()
        self.payloads = 0
        self.retired = []
        self.model = {0: [self.fresh(), 0]}
        self.current = 0
        self.epochs = Epochs(
            named_lock("test.epochs", reentrant=True), 0, self.model[0][0]
        )

    def fresh(self):
        self.payloads += 1
        return ("payload", self.payloads)

    def saw_retired(self, payloads):
        self.retired.extend(payloads)
        return set(payloads)

    @rule(n=st.integers(min_value=1, max_value=4))
    def pin(self, n):
        version, payload = self.epochs.pin(n)
        assert version == self.current
        assert payload == self.model[version][0]
        self.model[version][1] += n

    @rule(data=st.data(), n=st.integers(min_value=1, max_value=5))
    def release(self, data, n):
        # Known versions mostly; unknown ones (never published, long
        # retired) must be no-ops.
        version = data.draw(
            st.sampled_from(sorted(self.model)) | st.integers(-2, 12)
        )
        retired = self.saw_retired(self.epochs.release(version, n))
        entry = self.model.get(version)
        if entry is None:
            assert retired == set()
            return
        entry[1] = max(0, entry[1] - n)
        if entry[1] == 0 and version != self.current:
            assert retired == {self.model.pop(version)[0]}
        else:
            assert retired == set()

    @rule(version=st.integers(min_value=0, max_value=10))
    def publish(self, version):
        payload = self.fresh()
        retired = self.saw_retired(self.epochs.publish(version, payload))
        expected = set()
        replaced = self.model.get(version)
        if replaced is not None:
            expected.add(replaced[0])
        self.model[version] = [payload, replaced[1] if replaced else 0]
        self.current = version
        for old in [v for v, e in self.model.items() if v != version]:
            if self.model[old][1] == 0:
                expected.add(self.model.pop(old)[0])
        assert retired == expected

    @precondition(lambda self: self.epochs.pins() > 0)
    @rule()
    def drain(self):
        for version in self.epochs.live():
            pins = self.epochs.pins(version)
            if pins:
                self.saw_retired(self.epochs.release(version, pins))
                self.model[version][1] = 0
                if version != self.current:
                    del self.model[version]

    @invariant()
    def agrees_with_the_model(self):
        epochs = self.epochs
        assert epochs.current() == (self.current, self.model[self.current][0])
        pinned = {v for v, (_, pins) in self.model.items() if pins}
        assert set(epochs.live()) == {self.current} | pinned
        assert epochs.live() == tuple(sorted(self.model))
        for version, (payload, pins) in self.model.items():
            assert epochs.get(version) == payload
            assert epochs.pins(version) == pins >= 0
        assert epochs.pins() == sum(pins for _, pins in self.model.values())
        assert epochs.get(99) is None and epochs.pins(99) == 0

    @invariant()
    def retires_each_payload_once_and_never_a_live_one(self):
        assert len(self.retired) == len(set(self.retired))
        live = {payload for payload, _ in self.model.values()}
        assert not live & set(self.retired)
        assert len(live) + len(self.retired) == self.payloads


TestEpochsAgainstModel = EpochsMachine.TestCase
TestEpochsAgainstModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


class _Cursor:
    def __init__(self):
        self.hooks = []
        self.closed = False

    def add_close_hook(self, hook):
        self.hooks.append(hook)

    def close(self):
        self.closed = True
        for hook in self.hooks:
            hook()
        self.hooks = []


class TestHold:
    def _epochs(self):
        retired = []
        epochs = Epochs(named_lock("test.epochs", reentrant=True), 0, "v0")
        return epochs, retired

    def test_kept_cursors_release_on_close(self):
        epochs, retired = self._epochs()
        cursors = [_Cursor(), _Cursor()]
        with epochs.hold(2, retired.extend) as hold:
            assert (hold.version, hold.payload) == (0, "v0")
            assert epochs.pins() == 2
            hold.keep(cursors)
        assert epochs.pins() == 2
        epochs.publish(1, "v1")
        cursors[0].close()
        assert epochs.live() == (0, 1) and retired == []
        cursors[1].close()
        assert epochs.live() == (1,) and retired == ["v0"]

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_failure_closes_what_opened_and_releases_the_rest(self, error):
        epochs, retired = self._epochs()
        kept, orphan = _Cursor(), _Cursor()
        with pytest.raises(error):
            with epochs.hold(3, retired.extend) as hold:
                hold.keep([kept])
                hold.opened.append(orphan)
                raise error()
        assert kept.closed and orphan.closed
        assert epochs.pins() == 0

    def test_unkept_pins_are_released_on_a_clean_exit(self):
        epochs, retired = self._epochs()
        with epochs.hold(4, retired.extend) as hold:
            hold.keep([_Cursor()])
        assert epochs.pins() == 1

    def test_bare_hold_only_closes(self):
        cursor = _Cursor()
        with pytest.raises(RuntimeError):
            with Hold() as hold:
                hold.opened.append(cursor)
                raise RuntimeError
        assert cursor.closed


def test_two_thread_hammer_never_retires_a_pinned_version():
    """Readers pin/check/release while a writer publishes flat out.

    A reader that holds a pin must find its version live with the
    payload it pinned until it lets go; at the end everything but the
    current version has been retired, each payload exactly once.
    """
    epochs = Epochs(named_lock("test.epochs", reentrant=True), 0, 0)
    retired, errors = [], []
    guard = threading.Lock()
    rounds = 2000

    def note(payloads):
        with guard:
            retired.extend(payloads)

    def reader():
        try:
            for _ in range(rounds):
                version, payload = epochs.pin(2)
                if epochs.get(version) != payload or payload != version:
                    errors.append(("torn pin", version, payload))
                note(epochs.release(version))
                if version not in epochs.live():
                    errors.append(("retired under a pin", version))
                note(epochs.release(version))
        except BaseException as error:  # surfaced by the assert below
            errors.append(error)
            raise

    def writer():
        try:
            for version in range(1, rounds + 1):
                note(epochs.publish(version, version))
        except BaseException as error:  # surfaced by the assert below
            errors.append(error)
            raise

    threads = [threading.Thread(target=reader) for _ in range(2)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert epochs.pins() == 0
    assert epochs.live() == (rounds,)
    assert sorted(retired) == list(range(rounds))
