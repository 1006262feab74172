import pytest
from hypothesis import settings

from coarsenlab import initial_data
from coarsenlab.lsw_classical import ClassicalRunConfig, run_classical

# Property tests draw their examples from a fixed seed, so tier-1 is
# reproducible, and few of them, so its time stays bounded.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=30, database=None)
settings.load_profile("tier1")


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


# The reference classical run (exponential data, t_end 0.5, dt 0.0125) and its
# dilation by 2 serve the acceptance, classical and covariance tests; each is
# run once per session.  Tests only read the series, history and solver.
@pytest.fixture(scope="session")
def classical_exponential_run():
    return run_classical(ClassicalRunConfig(
        tail=initial_data.exponential_moment(), t_end=0.5, dt=0.0125))


@pytest.fixture(scope="session")
def classical_dilated_run():
    return run_classical(ClassicalRunConfig(
        tail=initial_data.dilated(initial_data.exponential_moment(), 2.0),
        t_end=0.5 / 2.0, dt=0.0125 / 2.0))
