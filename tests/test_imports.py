"""What a fresh interpreter loads: importing the CLI or the engines must
not load the modules that only some commands or the parallel walk use.

Each check runs in its own ``python`` process, since this test process
has already imported every module.
"""

import json
import subprocess
import sys

import pytest

from conftest import fresh_env


def loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON document."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=fresh_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def modules_after(statement: str) -> set[str]:
    return set(loaded_after(
        f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"))


def test_cli_import_loads_no_pool_hash_or_subcommand_modules():
    loaded = modules_after("import chromfield.cli")
    assert "chromfield.cli" in loaded
    assert loaded.isdisjoint({
        "concurrent.futures.process", "multiprocessing", "hashlib",
        "chromfield.identities", "chromfield.strips",
        "chromfield.asymptotics", "chromfield.families"})


def test_cli_import_loads_no_zeros():
    assert "chromfield.zeros" not in modules_after("import chromfield.cli")


@pytest.mark.parametrize("statement", [
    "import chromfield.zeros",
    # the modules the in-process benchmark workloads import
    "import chromfield.graphs, chromfield.identities, chromfield.partition, "
    "chromfield.zeros",
])
def test_engines_and_zeros_load_no_numpy(statement):
    loaded = modules_after(statement)
    assert "chromfield.zeros" in loaded
    assert not any(m == "numpy" or m.startswith("numpy.") for m in loaded)


def test_partition_import_loads_no_concurrent_futures():
    loaded = modules_after("import chromfield.partition")
    assert "chromfield.partition" in loaded
    assert not any(m == "concurrent.futures" or m.startswith("concurrent.futures.")
                   for m in loaded)


def test_parallel_walk_in_fresh_process_uses_real_pool():
    # two usable CPUs are claimed, so the walk splits into tasks on a real
    # process pool even on a one-CPU host
    got = loaded_after("""
import json, sys
from chromfield import partition
from chromfield.graphs import complete_graph
g = complete_graph(5)
serial = partition.subgraph_counts(g)
before = "concurrent.futures.process" in sys.modules
partition._usable_cpus = lambda: 2
parallel = partition.subgraph_counts(g, workers=2)
print(json.dumps({"equal": parallel == serial, "before": before,
                  "after": "concurrent.futures.process" in sys.modules}))
""")
    assert got == {"equal": True, "before": False, "after": True}
