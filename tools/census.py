"""Reachability census: run the product's entry points under a call
collector and print every function in ``src/repro`` none of them entered,
minus the reviewed keep-list.  ``python tools/census.py [ENTRYPOINTS]``

``census_entrypoints.txt`` holds the commands (a blank line ends a scenario;
``&`` starts a server, interrupted when its scenario ends), ``census_keep.txt``
the functions that stay although nothing reaches them (``path:qualname
reason``).  A report, not a gate: it fails only when an entry point does.
The collector is a ``sitecustomize`` on ``PYTHONPATH``, so spawned children
load it too, and it appends each function to a per-pid file at its *first
call*: a forked worker leaves through ``os._exit`` and runs no exit hook.
"""
import ast, os, shlex, signal, socket, subprocess, sys, tempfile, time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLLECTOR = '''import os, sys, threading
_seen, _out, _src = set(), os.environ["CENSUS_OUT"], os.environ["CENSUS_SRC"]
def _trace(frame, event, arg):  # the global hook sees "call" events only
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_src):
            with open(os.path.join(_out, str(os.getpid())), "a") as out:
                out.write("%s:%d\\n" % (code.co_filename, code.co_firstlineno))
sys.settrace(_trace)
threading.settrace(_trace)
'''


def collector_env(tmp, src, *pythonpath) -> dict:
    """Environment under which every python process records its calls."""
    Path(tmp, "site").mkdir(), Path(tmp, "calls").mkdir()
    Path(tmp, "site", "sitecustomize.py").write_text(COLLECTOR)
    return dict(os.environ, CENSUS_OUT=f"{tmp}/calls", CENSUS_SRC=str(src),
                PYTHONPATH=os.pathsep.join([f"{tmp}/site", *map(str, pythonpath)]))


def unreached(src, tmp) -> dict:
    """``{'relpath:qualname': lines}`` of each def under src no process entered."""
    entered = {line for calls in Path(tmp, "calls").iterdir() for line in calls.read_text().split()}

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if not isinstance(child, ast.ClassDef) and f"{path}:{first}" not in entered:
                    yield f"{path.relative_to(src)}:{prefix}{child.name}", child.end_lineno - first + 1
                yield from walk(path, child, f"{prefix}{child.name}.")
    return {name: lines for path in sorted(Path(src).rglob("*.py"))
            for name, lines in walk(path, ast.parse(path.read_text()), "")}


def run_scenario(steps, tmp, env) -> int:
    """Run one scenario's commands in order; returns how many failed."""
    servers, failures = [], 0
    for step in steps:
        argv = shlex.split(step.lstrip("&").replace("{tmp}", tmp))
        argv[:1] = {"repro": [sys.executable, "-m", "repro.cli"], "python": [sys.executable]}[argv[0]]
        print("census:", step, flush=True)
        if step.startswith("&"):
            servers.append(subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL))
            address = ("127.0.0.1", int(argv[argv.index("--port") + 1]))
            while servers[-1].poll() is None and socket.socket().connect_ex(address):
                time.sleep(0.2)  # until it listens
        elif subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode:
            print("census: FAILED", step, flush=True)
            failures += 1
    for server in reversed(servers):
        server.send_signal(signal.SIGINT)
        server.wait(timeout=120)
    return failures


def main(argv) -> int:
    src, tools = ROOT / "src" / "repro", ROOT / "tools"
    entrypoints = Path(argv[1]) if len(argv) > 1 else tools / "census_entrypoints.txt"
    scenarios = [[step for step in block.splitlines() if step and not step.startswith("#")]
                 for block in entrypoints.read_text().split("\n\n")]
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        env = collector_env(tmp, src, ROOT / "src", ROOT / "benchmarks")
        failures = sum(run_scenario(steps, tmp, env) for steps in scenarios)
        missing = {name: lines for name, lines in unreached(src, tmp).items()
                   if not name.endswith("__repr__")}
    keep = dict(line.split(None, 1) for line in (tools / "census_keep.txt").read_text().splitlines()
                if line.strip() and not line.startswith("#"))
    listed = [name for name in missing if name not in keep]
    for probe in ("live/cluster.py:_worker_main", "experiments/runner.py:_run_for_pool"):
        print(f"census: self-test {probe}:", "UNREACHED" if probe in missing else "reached")
    print(f"census: {len(missing)} functions unreached ({sum(missing.values())} lines), "
          f"{len(missing) - len(listed)} kept with a reason, {len(listed)} listed:")
    print("\n".join(f"{name}  ({missing[name]} lines)" for name in listed))
    print("".join(f"census: keep-list entry is reached or gone: {name}\n"
                  for name in sorted(set(keep) - set(missing))), end="")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
