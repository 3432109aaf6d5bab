"""The package's public names and the benchmark tracer's hooks stay in place."""
import importlib
import importlib.util
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import modbanach

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(modbanach.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    mod = importlib.import_module(f"modbanach.{name}")
    assert [k for k in mod.__all__ if not hasattr(mod, k)] == []


def test_package_reexports_names_of_module_all():
    exported = {}
    for name in MODULES:
        mod = importlib.import_module(f"modbanach.{name}")
        for k in mod.__all__:
            exported.setdefault(k, []).append(getattr(mod, k))
    for k, v in vars(modbanach).items():
        if k.startswith("_") or inspect.ismodule(v):
            continue
        assert any(v is obj for obj in exported.get(k, ())), k


def test_benchmark_tracer_installs_and_uninstalls():
    # the traced benchmark run rebinds these hooks; one that is renamed or
    # deleted makes install raise
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from modbanach import isolab, nakano, spaces

    originals = (spaces.Lp.norm_batch, nakano.BlockVector.__post_init__, isolab.find_one_dim_two_summand)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spaces.Lp.norm_batch is not originals[0]
        assert nakano.BlockVector.__post_init__ is not originals[1]
    finally:
        tracer.uninstall()
    assert (spaces.Lp.norm_batch, nakano.BlockVector.__post_init__, isolab.find_one_dim_two_summand) == originals


def test_config_validation_imports_no_jsonschema():
    # configs are read through the CLI's own key tables; jsonschema stays out
    # of the package
    probe = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from modbanach import cli\n"
        "with open(sys.argv[2], encoding='utf-8') as fh:\n"
        "    cli.validate_config(json.load(fh))\n"
        "assert 'modbanach.cli' in sys.modules and 'jsonschema' not in sys.modules, sorted(sys.modules)\n"
    )
    golden = ROOT / "configs" / "golden" / "jvn_l4_plane.json"
    out = subprocess.run([sys.executable, "-c", probe, str(ROOT / "src"), str(golden)],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
