import pytest

from stubs import StubService


@pytest.fixture(autouse=True)
def fast_retries(monkeypatch):
    # keep forced-failure paths quick; the nominal schedule is asserted
    # against the module constant, not by sleeping for real
    monkeypatch.setenv("AUTOPYRAMID_RETRY_SCHEDULE", "0,0")


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
