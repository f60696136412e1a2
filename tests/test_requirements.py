"""The dependency manifest covers every third-party import.

CI installs ``requirements.txt`` and nothing else, so a test, benchmark
or example that imports a package the manifest does not list fails to
collect there even when it passes on a machine that happens to have the
package.  Each top-level module imported under ``tests/``,
``benchmarks/`` and ``examples/`` must therefore be the standard
library, the ``repro`` package, one of the repo's own helper modules
(``reference_core``, ``svc_util``, e2e's ``run``/``compare``/``layers``
...), or a name listed in ``requirements.txt``.
"""

import ast
import importlib.util
import os
import re
import sys
import sysconfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("tests", "benchmarks", "examples")


#: Import names whose distribution (the name ``requirements.txt``
#: lists) differs.
DISTRIBUTIONS = {"yaml": "pyyaml"}


def _normalize(name):
    return name.lower().replace("-", "_")


def _requirements():
    names = set()
    with open(os.path.join(ROOT, "requirements.txt")) as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if line:
                names.add(_normalize(re.split(r"[\s<>=!~;\[]", line)[0]))
    return names


def _python_files():
    for tree in TREES:
        for folder, _, files in os.walk(os.path.join(ROOT, tree)):
            for name in files:
                if name.endswith(".py"):
                    yield os.path.join(folder, name)


def _local_modules():
    """Module names the repo itself provides: ``repro``, the trees'
    packages, and every helper module the tests import as a sibling."""
    names = {"repro"} | set(TREES)
    names.update(os.path.splitext(os.path.basename(path))[0]
                 for path in _python_files())
    return names


def _imported_modules():
    """{top-level module: first importing file}, absolute imports only."""
    found = {}
    for path in _python_files():
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                found.setdefault(module.split(".")[0],
                                 os.path.relpath(path, ROOT))
    return found


def _is_stdlib(name):
    if name in sys.builtin_module_names:
        return True
    spec = importlib.util.find_spec(name)
    if spec is None:
        return False
    if spec.origin in ("built-in", "frozen"):
        return True
    location = spec.origin or next(iter(spec.submodule_search_locations
                                        or ()), "")
    location = os.path.realpath(location)
    paths = sysconfig.get_paths()
    third_party = {os.path.realpath(paths[key])
                   for key in ("purelib", "platlib")}
    if any(location.startswith(prefix + os.sep) for prefix in third_party):
        return False
    return any(location.startswith(os.path.realpath(paths[key]) + os.sep)
               for key in ("stdlib", "platstdlib"))


class TestRequirementsManifest:
    def test_every_third_party_import_is_listed(self):
        listed = _requirements()
        local = _local_modules()
        missing = {name: where
                   for name, where in _imported_modules().items()
                   if name not in local and not _is_stdlib(name)
                   and _normalize(DISTRIBUTIONS.get(name, name))
                   not in listed}
        assert not missing, (
            "imported but not in requirements.txt: {}".format(missing))

    def test_scan_sees_the_known_dependencies(self):
        # Guards the scan itself: these are imported today, and each is
        # classified the way the manifest check relies on.
        imported = _imported_modules()
        for name in ("numpy", "pytest", "hypothesis", "yaml"):
            assert name in imported
            assert not _is_stdlib(name)
        for name in ("os", "json", "hashlib", "math"):
            assert _is_stdlib(name)
        for name in ("reference_core", "reference_sampler", "svc_util",
                     "run", "compare", "layers"):
            assert name in _local_modules()
