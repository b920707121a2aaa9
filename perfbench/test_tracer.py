"""The tracer on a small stand-in package and on blockscope itself."""

import importlib
import sys
import time

import pytest

from tracer import Tracer

FAKE = {
    "__init__": "",
    "groups": '''
__all__ = ["sylow_subgroup", "normalizer", "merged_away"]

def normalizer(g, h):
    return ("N", g, h)

def sylow_subgroup(g, p):
    return normalizer(g, p)
''',
    "blocks": '''
from .groups import sylow_subgroup
__all__ = ["principal_block", "brauer_induce"]

def principal_block(g, p):
    import time
    time.sleep(0.02)
    return sylow_subgroup(g, p)
''',
}


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakebs"
    pkg.mkdir()
    for name, text in FAKE.items():
        (pkg / f"{name}.py").write_text(text)
    monkeypatch.syspath_prepend(str(tmp_path))
    yield [importlib.import_module(f"fakebs.{name}") for name in ("groups", "blocks")]
    for name in [m for m in sys.modules if m == "fakebs" or m.startswith("fakebs.")]:
        del sys.modules[name]


def test_missing_names_are_skipped_not_fatal(fake_package):
    tracer = Tracer(package="fakebs")
    skipped = tracer.install()
    try:
        assert "groups.merged_away" in skipped       # listed in __all__, gone
        assert "blocks.brauer_induce" in skipped     # a counted target, gone
        assert "perms" in skipped                    # a whole layer, gone
        blocks = sys.modules["fakebs.blocks"]
        assert blocks.principal_block("G", 2) == ("N", "G", 2)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["groups.sylow_calls"] == 1 and m["groups.normalizer_calls"] == 1
    assert m["perms.mul_calls"] == 0
    assert m["blocks.self_s"] >= 0.02 > m["groups.self_s"]


def test_nested_spans_record_their_parent_and_uninstall_restores(fake_package):
    groups = sys.modules["fakebs.groups"]
    original = groups.sylow_subgroup
    tracer = Tracer(package="fakebs")
    tracer.install()
    sys.modules["fakebs.blocks"].principal_block("G", 2)
    tracer.uninstall()
    assert groups.sylow_subgroup is original
    assert sys.modules["fakebs.blocks"].sylow_subgroup is original
    names = [s[0] for s in tracer.spans]
    assert names == ["blocks.principal_block", "groups.sylow_subgroup"]
    assert tracer.spans[1][3] == 0              # parent is the blocks span
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_self_times_cover_the_traced_wall_time():
    # called through the modules: names bound before install are not traced
    from blockscope import blocks, chartable, recipes

    tracer = Tracer()
    assert tracer.install() == []
    try:
        t0 = time.perf_counter()
        group = recipes.construct_group(recipes.symmetric(5))
        blocks.block_distribution(chartable.character_table(group), 2)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert 0.95 * wall <= total <= wall
    assert m["chartable.tables_built"] == 1 and m["chartable.classes_total"] == 7
    assert m["perms.mul_calls"] > 0 and m["cyclotomic.arith_calls"] > 0
