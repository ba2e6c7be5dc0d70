"""Sum the false-failure rates of the statistical gates the session ran."""

from collections import Counter

from mc_utils import GATES


def pytest_terminal_summary(terminalreporter):
    per_test = Counter()
    for test, rate in GATES:
        per_test[test.split("[")[0]] += rate  # parametrized cases sum into their function
    terminalreporter.section("Monte-Carlo gates")
    terminalreporter.write_line(f"{len(GATES)} stderr gates in {len(per_test)} test functions fail by chance "
                                f"with probability at most {sum(per_test.values()):.2g} (union bound); above 1e-4:")
    for test, rate in per_test.most_common():
        if rate > 1e-4:
            terminalreporter.write_line(f"  {rate:.2g}  {test}")
