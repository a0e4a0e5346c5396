"""The package holds only the toolkit a user runs; the oracles and the
timing harness the tests share live beside the tests."""

import pathlib
import pkgutil
import re

import gemproj

ROOT = pathlib.Path(__file__).resolve().parents[1]

TOOLKIT = {"__main__", "adapter_model", "cli", "datagen", "metrics", "projector",
           "replay", "results", "spectral", "trainer"}


def test_package_modules_are_exactly_the_toolkit():
    assert {m.name for m in pkgutil.iter_modules(gemproj.__path__)} == TOOLKIT


def test_no_package_source_imports_a_test_helper():
    helper_import = re.compile(r"^\s*(from|import)\s+(oracles|timing)\b", re.M)
    offenders = [str(p.relative_to(ROOT)) for p in (ROOT / "src").rglob("*.py")
                 if helper_import.search(p.read_text(encoding="utf-8"))]
    assert offenders == []


def test_tests_and_perfbench_share_no_module_name():
    # pytest puts both directories on sys.path in one session, so a shared
    # basename would import whichever file came first under both names
    def names(d):
        return {p.name for p in (ROOT / d).glob("*.py")}

    assert names("tests") & names("perfbench") == set()
