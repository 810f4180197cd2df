"""Benchmark-suite configuration.

Each benchmark regenerates one table or figure from the paper's
evaluation (see DESIGN.md §4 for the index).  Results are printed and
also written to ``benchmarks/results/<name>.txt`` (``<name>.smoke.txt``
for a trimmed CI-size run) so the paper-shaped tables survive pytest's
output capturing.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")


@pytest.fixture
def report(request):
    """Collects report lines; writes them to a results file on success.

    The file's first line names the configuration that produced it: the
    test's node id, plus the module's ``RESULTS_CONFIG`` when it sets
    one.  A module whose ``RESULTS_SMOKE`` is true (a trimmed CI-size
    run) writes ``<name>.smoke.txt``, so it never overwrites the
    committed full-size ``<name>.txt``.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    config = request.node.nodeid
    extra = getattr(request.module, "RESULTS_CONFIG", None)
    if extra:
        config += f" ({extra})"
    suffix = ".smoke.txt" if getattr(request.module, "RESULTS_SMOKE",
                                     False) else ".txt"

    class Reporter:
        def __init__(self):
            self.lines = []

        def add(self, text=""):
            self.lines.append(str(text))
            print(text)

        def write(self, name):
            path = os.path.join(RESULTS_DIR, name + suffix)
            with open(path, "w") as handle:
                handle.write(f"# config: {config}\n")
                handle.write("\n".join(self.lines) + "\n")
            return path

    return Reporter()
