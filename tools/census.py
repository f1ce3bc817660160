"""Reachability census: run the product's entry points under one collector
and print every function in ``src/repro`` none of them entered, then every
run of >= 3 statements none of them executed inside a function they did
enter, each minus its reviewed keep-list.  ``python tools/census.py [ENTRYPOINTS]``

``census_entrypoints.txt`` holds the commands (a blank line ends a scenario;
``&`` starts a server, interrupted when its scenario ends), ``census_keep.txt``
the functions that stay although nothing reaches them and
``census_keep_lines.txt`` the reached functions whose unexecuted runs stay
(both ``path:qualname  reason``).  A report, not a gate: it fails only when an
entry point does.  The collector is a ``sitecustomize`` on ``PYTHONPATH``, so
spawned children load it too; it appends each function at its *first call* and
each line at its first execution to a per-pid, line-buffered file, because a
forked worker leaves through ``os._exit`` and runs no exit hook.  A code object
whose every line has been seen is no longer traced.
"""
import ast, os, shlex, signal, socket, subprocess, sys, tempfile, time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEAST = 3  # statements in the shortest reported unexecuted run
COLLECTOR = '''import os, sys, threading
_out, _src = os.environ["CENSUS_OUT"], os.environ["CENSUS_SRC"]
_left, _sink = {}, [None, None]  # code -> lines not yet seen; [pid, file]
def _emit(record):
    if _sink[0] != os.getpid():  # a forked child writes its own file
        _sink[:] = [os.getpid(), open(os.path.join(_out, str(os.getpid())), "a", buffering=1)]
    _sink[1].write(record + "\\n")
def _line(frame, event, arg):
    left = _left[frame.f_code]
    if event == "line" and frame.f_lineno in left:
        left.discard(frame.f_lineno)
        _emit("%s:%d" % (frame.f_code.co_filename, frame.f_lineno))
        if not left:
            frame.f_trace_lines = False
    return _line
def _call(frame, event, arg):  # the global hook sees "call" events only
    code = frame.f_code
    left = _left.get(code)
    if left is None:
        left = _left[code] = set()
        if code.co_filename.startswith(_src):
            _emit("call %s:%d" % (code.co_filename, code.co_firstlineno))
            left.update(line for _, _, line in code.co_lines() if line)
            left.discard(code.co_firstlineno)  # the def line fires no event
    return _line if left else None
sys.settrace(_call)
threading.settrace(_call)
'''


def collector_env(tmp, src, *pythonpath) -> dict:
    """Environment under which every python process records its calls and lines."""
    Path(tmp, "site").mkdir(), Path(tmp, "calls").mkdir()
    Path(tmp, "site", "sitecustomize.py").write_text(COLLECTOR)
    return dict(os.environ, CENSUS_OUT=f"{tmp}/calls", CENSUS_SRC=str(src),
                PYTHONPATH=os.pathsep.join([f"{tmp}/site", *map(str, pythonpath)]))


def collected(tmp):
    """``({'path:first line'} of entered defs, {'path:line'} of executed lines)``."""
    records = {line for calls in Path(tmp, "calls").iterdir() for line in calls.read_text().splitlines()}
    return ({r[5:] for r in records if r.startswith("call ")},
            {r for r in records if not r.startswith("call ")})


def defs(src):
    """``(path, 'relpath:qualname', first line, node)`` of each def under src."""
    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield path, f"{path.relative_to(src)}:{prefix}{child.name}", first, child
                yield from walk(path, child, f"{prefix}{child.name}.")
    for path in sorted(Path(src).rglob("*.py")):
        yield from walk(path, ast.parse(path.read_text()), "")


def unreached(src, tmp) -> dict:
    """``{'relpath:qualname': lines}`` of each def under src no process entered."""
    entered, _ = collected(tmp)
    return {name: node.end_lineno - first + 1 for path, name, first, node in defs(src)
            if f"{path}:{first}" not in entered}


def statements(body):
    """Each statement under ``body`` in source order with its header lines;
    a nested def or class is one statement, its body is not this function's."""
    for stmt in body:
        inner = [] if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else (
            [getattr(stmt, f, []) for f in ("body", "orelse", "finalbody")]
            + [part.body for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", [])])
        first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
        compound = hasattr(stmt, "body") and stmt.body[0].lineno > first
        yield stmt, range(first, stmt.body[0].lineno if compound else stmt.end_lineno + 1)
        for block in inner:
            yield from statements(block)


def dead_runs(src, tmp) -> dict:
    """``{'relpath:qualname': [(first line, last line, statements), ...]}``: each
    run of >= ``LEAST`` consecutive statements with code that no process executed,
    inside a def some process entered."""
    entered, executed = collected(tmp)
    runs, codes = {}, {}
    for path, name, first, node in defs(src):
        if f"{path}:{first}" not in entered:
            continue
        if path not in codes:
            stack, codes[path] = [compile(path.read_text(), str(path), "exec")], {}
            while stack:
                code = stack.pop()
                codes[path][code.co_firstlineno, code.co_name] = code
                stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        code = codes[path][first, node.name]
        has_code = {line for _, _, line in code.co_lines() if line} - {first}
        groups = [[]]  # consecutive unexecuted statements
        for stmt, header in statements(node.body):
            if has_code.isdisjoint(header):
                continue  # compiles to nothing: a docstring, pass, global
            if any(f"{path}:{line}" in executed for line in header):
                groups.append([])
            else:
                groups[-1].append(stmt)
        found = [(group[0].lineno, max(s.end_lineno for s in group), len(group))
                 for group in groups if len(group) >= LEAST]
        if found:
            runs[name] = found
    return runs


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


def keep_list(path) -> dict:
    return dict(line.split(None, 1) for line in path.read_text().splitlines()
                if line.strip() and not line.startswith("#"))


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
        runs = dead_runs(src, tmp)
    keep, keep_runs = keep_list(tools / "census_keep.txt"), keep_list(tools / "census_keep_lines.txt")
    listed = [name for name in missing if name not in keep]
    for probe in ("live/cluster.py:_worker_main", "experiments/runner.py:_run_for_pool"):
        print(f"census: self-test {probe}:", "UNREACHED" if probe in missing else "reached")
    print(f"census: {len(missing)} functions unreached ({sum(missing.values())} lines), "
          f"{len(missing) - len(listed)} kept with a reason, {len(listed)} listed:")
    print("\n".join(f"{name}  ({missing[name]} lines)" for name in listed))
    print("".join(f"census: keep-list entry is reached or gone: {name}\n"
                  for name in sorted(set(keep) - set(missing))), end="")
    listed = [name for name in runs if name not in keep_runs]
    print(f"census: {sum(map(len, runs.values()))} unexecuted runs of >= {LEAST} statements in "
          f"{len(runs)} reached functions ({sum(n for r in runs.values() for *_, n in r)} statements, "
          f"{sum(b - a + 1 for r in runs.values() for a, b, _ in r)} lines), "
          f"{len(runs) - len(listed)} functions kept with a reason, {len(listed)} listed:")
    print("\n".join(f"{name}  " + ", ".join(f"lines {a}-{b} ({n} statements)" for a, b, n in runs[name])
                    for name in listed))
    print("".join(f"census: line keep-list entry has no unexecuted run or is gone: {name}\n"
                  for name in sorted(set(keep_runs) - set(runs))), end="")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
