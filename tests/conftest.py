import os
import sys

from hypothesis import settings

# derandomized, so each run draws the same examples; no deadline, since a
# series-oracle evaluation is slow by design
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

# pyproject's pytest ``pythonpath`` reaches this process only; the tests that
# start ``python -m bergman`` need the source tree on PYTHONPATH as well
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the run, capture-proof."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for line in verdicts:
        terminalreporter.write_line(line)
