"""Every file the package writes goes through ``write_atomic``, and
every artifact through ``cli._emit_outputs``.

The first check parses the source of ``src/serinarr`` and fails on any
call that writes a file (``write_text``, ``write_bytes``, or ``open`` /
``os.fdopen`` in a write mode) outside that one function, so no
artifact can be left half-written by an interrupted run.  The second
fails on any call of ``write_atomic`` or ``dump_pool`` outside
``cli._emit_outputs`` (and of ``write_atomic`` outside
``fitting.dump_pool``), so no artifact skips the check of every path
that comes before the first write.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "serinarr"
WRITER = "write_atomic"


def _mode(call):
    """The mode argument of an open-like call; "r" when it is omitted."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    # Path.open(mode) takes the mode first; open(file, mode) and
    # os.fdopen(fd, mode) take it second.
    pos = 0 if isinstance(call.func, ast.Attribute) and call.func.attr == "open" else 1
    return call.args[pos] if len(call.args) > pos else ast.Constant("r")


def _writes(call):
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name in ("open", "fdopen"):
        mode = _mode(call)
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True  # a mode not known in advance may write
        return bool(set(mode.value) & set("wax+"))
    return False


def file_writes(source):
    """Line numbers of the file-writing calls outside ``write_atomic``."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == WRITER
        if isinstance(node, ast.Call) and not inside and _writes(node):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("source, lines", [
    ("Path(p).write_text(s)", [1]),
    ("p.write_bytes(b)", [1]),
    ("open(p, 'w')", [1]),
    ("open(p, mode='a')", [1]),
    ("os.fdopen(fd, 'w')", [1]),
    ("p.open('r+')", [1]),
    ("open(p, m)", [1]),
    ("open(p)\nopen(p, 'rb')\np.open()\np.read_text()", []),
    ("def write_atomic(path, text):\n    with os.fdopen(fd, 'w') as fh:\n"
     "        fh.write(text)", []),
    ("def other():\n    p.write_text(s)", [2]),
])
def test_guard_finds_file_writes(source, lines):
    assert file_writes(source) == lines


def test_only_write_atomic_writes_files():
    offenders = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := file_writes(path.read_text()))
    }
    assert offenders == {}
    writers = [
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == WRITER
    ]
    assert writers == ["fitting.py"]


# (module, function) -> the writers it may call.
WRITER_CALLERS = {
    ("cli.py", "_emit_outputs"): {"write_atomic", "dump_pool"},
    ("fitting.py", "dump_pool"): {"write_atomic"},
}


def writer_calls(module, source):
    """Line numbers of the ``write_atomic`` and ``dump_pool`` calls that
    ``WRITER_CALLERS`` does not allow in their function."""
    found = []

    def visit(node, allowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            allowed = WRITER_CALLERS.get((module, node.name), set())
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("write_atomic", "dump_pool") and name not in allowed:
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(ast.parse(source), set())
    return found


@pytest.mark.parametrize("module, source, lines", [
    ("cli.py", "def _emit_outputs(cfg, files):\n    write_atomic(p, t)\n"
     "    dump_pool(pool, p)", []),
    ("cli.py", "def _emit_outputs(cfg, files):\n    def write():\n"
     "        write_atomic(p, t)", [3]),
    ("cli.py", "def _write_artifact(cfg, suffix, text):\n    write_atomic(p, text)", [2]),
    ("cli.py", "fitting.dump_pool(pool, p)", [1]),
    ("fitting.py", "def dump_pool(pool, path):\n    write_atomic(Path(path), text)", []),
    ("fitting.py", "def dump_pool(pool, path):\n    dump_pool(pool, path)", [2]),
    ("render.py", "def _emit_outputs(cfg, files):\n    write_atomic(p, t)", [2]),
])
def test_guard_finds_writer_calls(module, source, lines):
    assert writer_calls(module, source) == lines


def test_only_emit_outputs_writes_artifacts():
    offenders = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := writer_calls(path.name, path.read_text()))
    }
    assert offenders == {}
