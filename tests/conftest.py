import pytest


@pytest.fixture
def record_draws():
    """Route a NoiseModel's generator through a recorder; returns the names of the methods asked for."""

    def install(noise):
        calls, rng = [], noise.rng

        class Recorder:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(rng, name)

        noise.rng = Recorder()
        return calls

    return install
