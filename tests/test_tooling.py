"""The package's public names and the benchmark tracer's hooks stay in place,
every public name has a caller beyond its own unit test, and every defaulted
parameter has a caller that sets it to a value other than its default."""
import ast
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


#: parameters that may keep a default no call in the tree sets, or sets only
#: to the default, each with its reason
_UNSET_ALLOWED = {
    ("*", "seed"): "a seed names a reproducible run; the default run is seed 0",
    ("spec_from_dict", "where"): "a reader in the config key tables, called as reader(value, where)",
    ("space_from_dict", "where"): "a reader in the config key tables, called as reader(value, where)",
    ("_two_smooth_params", "c"): "reached through PAIR_CHECKS by verify_pair's options and the config's c",
    ("main", "argv"): "the console script calls main() on sys.argv; an argument list is for calls from Python",
    ("build_inclusion_embedding", "h_dim"): "the iterate key table sets h_dim through build(**values)",
    ("build_counterexample_embedding", "h_dim"): "the iterate key table sets h_dim through build(**values)",
}


def _trees(folder):
    return [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / folder).rglob("*.py"))]


def _defaulted(fn) -> dict:
    """Each defaulted parameter of a def: its position after self or cls (None if
    keyword-only) and its default."""
    args = fn.args
    pos = [a.arg for a in args.posonlyargs + args.args]
    skip = 1 if pos[:1] in (["self"], ["cls"]) else 0
    first = len(pos) - len(args.defaults)
    out = {a: (i - skip, args.defaults[i - first]) for i, a in enumerate(pos) if i >= first}
    out.update({a.arg: (None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return out


_NOT_LITERAL = object()


def _literal(node):
    """The value of a literal expression node, or _NOT_LITERAL."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _NOT_LITERAL


def _outside_trees():
    """perfbench/, scripts/ and the acceptance criteria: with src/, the code
    whose calls keep a name or a parameter alive; a unit test alone does not."""
    return _trees("perfbench") + _trees("scripts") + [
        ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))]


def test_every_defaulted_parameter_has_a_caller():
    # a call is matched to every def of its name, and it sets a parameter by
    # keyword, by position, or by * or ** unpacking (which may set any).  A
    # parameter fails when no call sets it, or when every call that sets it
    # gives a literal equal to its default: then the default is its one value
    calls = {}
    for tree in _trees("src") + _outside_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                unpacked = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords)
                calls.setdefault(name, []).append((node.args, {k.arg: k.value for k in node.keywords}, unpacked))
    unset, default_only = [], []
    for tree in _trees("src"):
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for param, (pos, default) in _defaulted(fn).items():
                if (fn.name, param) in _UNSET_ALLOWED or ("*", param) in _UNSET_ALLOWED:
                    continue
                # the value each call that sets it gives, or None for an unpacked call
                given = []
                for args, keys, unpacked in calls.get(fn.name, ()):
                    if unpacked or param in keys:
                        given.append(None if unpacked else keys[param])
                    elif pos is not None and pos < len(args):
                        given.append(args[pos])
                if not given:
                    unset.append(f"{fn.name}.{param}")
                elif _literal(default) is not _NOT_LITERAL and all(
                        v is not None and _literal(v) == _literal(default) for v in given):
                    default_only.append(f"{fn.name}.{param}")
    assert unset == [], f"defaulted parameters that no call sets: {unset}"
    assert default_only == [], f"defaulted parameters that every call sets to their default: {default_only}"


#: public names that nothing in the package, the benchmark, the scripts or the
#: acceptance criteria reaches, each with its reason
_UNCALLED_ALLOWED = {
    "verify.reevaluate_witness": "the README promises that a report's worst witness can be replayed",
}


def _references(tree, chain: tuple, out: dict) -> None:
    """Each name a tree reads as a Name, an Attribute or an import, with the
    chain around the read: ``chain`` and then every public def or class it
    sits in.  An attribute read ``x.name`` is keyed ``.name``."""
    for node in ast.iter_child_nodes(tree):
        inner = chain
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            inner = chain + (node.name,)
        if isinstance(node, ast.Name):
            out.setdefault(node.id, []).append(chain)
        elif isinstance(node, ast.Attribute):
            out.setdefault("." + node.attr, []).append(chain)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.setdefault(alias.name.rsplit(".", 1)[-1], []).append(chain)
        _references(node, inner, out)


def test_every_public_name_has_a_caller():
    # the public defs and classes of the package's modules, and the public
    # methods of those classes; a name is reached when it is read in src/
    # (not __init__.py, whose re-exports and __all__ call nothing),
    # perfbench/, scripts/ or the acceptance criteria, outside its own def
    # and outside every def found unreached so far.  A method is reached
    # only by an attribute read (``x.name``), and it matches by name alone,
    # so it is reached when any method of its name is.
    outside = {}
    for tree in _outside_trees():
        _references(tree, (), outside)
    inside, defs = {}, {}
    for path in sorted((ROOT / "src" / "modbanach").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _references(tree, (path.stem,), inside)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs[(path.stem, node.name)] = (node.name, (node.name, "." + node.name))
                for m in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        defs[(path.stem, node.name, m.name)] = (m.name, ("." + m.name,))
    allowed = {tuple(q.split(".")) for q in _UNCALLED_ALLOWED}
    dead = set()
    while True:
        # a read counts unless a def around it is unreached or has the name read
        unreached = {q for q, (name, keys) in defs.items() if q not in dead | allowed and not any(
            key in outside for key in keys) and not any(
            name not in chain[1:] and not any(chain[:k] in dead for k in range(2, len(chain) + 1))
            for key in keys for chain in inside.get(key, ()))}
        if not unreached:
            break
        dead |= unreached
    names = sorted(".".join(q) for q in dead)
    assert names == [], f"public names that no caller reaches: {names}"


def _bench_run(implied_kernel_ms: float, raw_pass_s=(1.0,)) -> dict:
    return {"metrics": {"wall_s": 1.0}, "raw_pass_s": list(raw_pass_s), "failed": 0, "attempted": 1,
            "implied_kernel_ms": implied_kernel_ms}


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


@pytest.mark.parametrize("change_kernels, mismatch", [
    ([2.0, 2.1, 2.2, 2.3, 2.4], False),    # the two IQRs overlap
    ([2.5, 2.6, 2.6, 2.7, 2.8], True),     # every change kernel is slower
])
def test_bench_pairs_flags_a_kernel_mode_mismatch(change_kernels, mismatch):
    # the parent's implied kernels have the IQR [2.05, 2.15]
    pairs = [{"parent": _bench_run(p), "change": _bench_run(c)}
             for p, c in zip([2.0, 2.05, 2.1, 2.15, 2.2], change_kernels)]
    summary = _bench_pairs().summarize(pairs, {"wall_s": "lower"})
    assert summary["kernel_mode_mismatch"] is mismatch


def test_bench_pairs_reports_the_raw_pass_median_ratio():
    # each run's median raw pass: parent 1.0-1.4 s (median 1.2), change 0.9 s throughout
    pairs = [{"parent": _bench_run(2.0, (t, t + 0.1, t - 0.1)), "change": _bench_run(2.0, (0.9, 0.8, 1.0))}
             for t in (1.0, 1.1, 1.2, 1.3, 1.4)]
    raw = _bench_pairs().summarize(pairs, {"wall_s": "lower"})["raw_pass_s_median_per_run"]
    assert raw["change_faster_pairs"] == "5/5"
    assert raw["median_ratio_change_over_parent"] == pytest.approx(0.9 / 1.2)
