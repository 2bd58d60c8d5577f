import pytest
from hypothesis import settings

from stubs import RawService, StubService

# every property test draws the same examples on every run, whatever their
# timing: a failure is one the next run sees too
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def fast_retries(monkeypatch):
    # the only schedule override in the tests: keep forced-failure paths
    # quick. A test that asserts the nominal schedule deletes the variable
    # and records the pauses with ``slept`` instead of sleeping for real.
    monkeypatch.setenv("AUTOPYRAMID_RETRY_SCHEDULE", "0,0")


@pytest.fixture
def opened(monkeypatch):
    """The files ``autopyramid.data`` opens, each recorded as it is opened:
    every input file is read through it."""
    from autopyramid import data

    handles = []

    def recording_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(data, "open", recording_open, raising=False)
    return handles


@pytest.fixture
def slept(monkeypatch):
    """The pauses between retries, recorded in order instead of slept."""
    from autopyramid import services

    delays = []
    monkeypatch.setattr(services, "sleep", delays.append)
    return delays


@pytest.fixture
def stub_service():
    created = []

    def make(handler=None, failures=0, raw_body=None, drops=0):
        stub = StubService(handler or (lambda p, b: (200, {})), failures, raw_body, drops)
        created.append(stub)
        return stub

    yield make
    for stub in created:
        stub.stop()


@pytest.fixture
def raw_service():
    created = []

    def make(reply, tls=None):
        stub = RawService(reply, tls)
        created.append(stub)
        return stub

    yield make
    for stub in created:
        stub.stop()
