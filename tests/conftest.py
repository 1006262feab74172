from hypothesis import settings

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
