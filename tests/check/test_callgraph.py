"""Module summaries, the project index, and cross-module resolution."""

from __future__ import annotations

from repro.check.callgraph import (
    ModuleSummary,
    ProjectIndex,
    build_module_summary,
    module_name_for,
)
from repro.check.engine import Module


def _summary(path: str, source: str) -> ModuleSummary:
    return build_module_summary(Module(path, source))


def test_module_name_for_climbs_packages(tmp_path):
    pkg = tmp_path / "pkg" / "sub"
    pkg.mkdir(parents=True)
    for d in (tmp_path / "pkg", pkg):
        (d / "__init__.py").write_text("")
    mod = pkg / "leaf.py"
    mod.write_text("x = 1")
    assert module_name_for(mod.as_posix()) == "pkg.sub.leaf"
    assert module_name_for((pkg / "__init__.py").as_posix()) == "pkg.sub"


def test_summary_records_calls_and_dispositions():
    s = _summary("m.py", (
        "import asyncio\n"
        "async def work():\n"
        "    await fetch()\n"
        "    asyncio.create_task(refresh())\n"
        "    plain()\n"
    ))
    info = s.functions["work"]
    assert info.is_async
    by_token = {c.token: c for c in info.calls}
    assert by_token["fetch"].awaited
    assert by_token["refresh"].wrapped
    assert by_token["plain"].bare


def test_index_resolves_from_import_and_alias():
    a = _summary("pkg/a.py", "def helper():\n    return 1\n")
    a.module = "pkg.a"
    b = _summary("pkg/b.py", (
        "from pkg.a import helper\n"
        "import pkg.a as alias\n"
        "def caller():\n"
        "    return helper() + alias.helper()\n"
    ))
    b.module = "pkg.b"
    index = ProjectIndex({s.path: s for s in (a, b)})
    resolved = index.resolve(b, b.functions["caller"], "helper")
    assert resolved is not None and resolved[1].qualname == "helper"
    via_alias = index.resolve(b, b.functions["caller"], "alias.helper")
    assert via_alias is not None and via_alias[1].qualname == "helper"


def test_index_resolves_self_methods():
    s = _summary("pkg/c.py", (
        "class Pool:\n"
        "    def acquire(self):\n"
        "        return self._grow()\n"
        "    def _grow(self):\n"
        "        return 1\n"
    ))
    s.module = "pkg.c"
    index = ProjectIndex({s.path: s})
    resolved = index.resolve(s, s.functions["Pool.acquire"], "self._grow")
    assert resolved is not None
    assert resolved[1].qualname == "Pool._grow"


def test_unresolvable_stays_none():
    s = _summary("pkg/d.py", "def f():\n    return mystery()\n")
    s.module = "pkg.d"
    index = ProjectIndex({s.path: s})
    assert index.resolve(s, s.functions["f"], "mystery.nope") is None
    assert index.resolve(s, s.functions["f"], "os.path.join") is None


def test_blocking_sites_recorded():
    s = _summary("m.py", (
        "def f(conn):\n"
        "    conn.recv()\n"
        "def g():\n"
        "    pass\n"
    ))
    assert [b.label for b in s.functions["f"].blocking] == ["recv"]
    assert not s.functions["g"].blocking


def test_top_imports_include_guarded_but_not_function_scope():
    s = _summary("m.py", (
        "import os\n"
        "try:\n"
        "    import tomllib\n"
        "except ImportError:\n"
        "    tomllib = None\n"
        "def f():\n"
        "    import json\n"
        "    return json\n"
    ))
    dotted = {d for d, _, _ in s.top_imports}
    assert "os" in dotted and "tomllib" in dotted
    assert "json" not in dotted
