"""The reachability census's collector (``tools/census.py``).

Its two traps are children: a forked ``multiprocessing`` worker leaves
through ``os._exit`` and never runs an exit-time dump, and a spawned one
inherits nothing but the environment.  Both must be collected, and a
function nothing calls must be reported.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census.py"

PLANTED = '''
def forked_only():
    return 1

def spawned_only():
    return 2

def never_called():
    return 3

class Box:
    @property
    def unread(self):
        return 4
'''

DRIVER = '''
import multiprocessing
import planted

if __name__ == "__main__":
    for method, target in (("fork", planted.forked_only),
                           ("spawn", planted.spawned_only)):
        child = multiprocessing.get_context(method).Process(target=target)
        child.start()
        child.join(60)
        assert child.exitcode == 0, (method, child.exitcode)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_collector_sees_forked_and_spawned_children(tmp_path):
    census = load_tool()
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "planted.py").write_text(PLANTED)
    (tmp_path / "driver.py").write_text(DRIVER)
    env = census.collector_env(str(tmp_path), src, src)
    subprocess.run([sys.executable, str(tmp_path / "driver.py")],
                   env=env, check=True, timeout=120)
    assert census.unreached(src, str(tmp_path)) == {
        "planted.py:never_called": 2, "planted.py:Box.unread": 3}


BRANCHES = '''
def reached(flag):
    if flag:
        a = 1
        b = 2
        c = 3
    if flag:
        d = 4
        e = 5
    return 0
'''


def test_dead_runs_of_three_statements_are_reported(tmp_path):
    """A reached function's dead branch is a run when it spans three
    statements with code, and too short to report at two."""
    census = load_tool()
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "branches.py").write_text(BRANCHES)
    env = census.collector_env(str(tmp_path), src, src)
    subprocess.run([sys.executable, "-c",
                    "import branches; branches.reached(False)"],
                   env=env, check=True, timeout=120)
    assert census.unreached(src, str(tmp_path)) == {}
    assert census.dead_runs(src, str(tmp_path)) == {
        "branches.py:reached": [(4, 6, 3)]}
