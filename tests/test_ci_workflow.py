"""The CI workflow parses, and every repo path it runs exists.

No local run executes ``.github/workflows/ci.yml``, so a workflow that
stops parsing as YAML, or a step that names a test file, script or
``repro`` module that was renamed or deleted, would otherwise go unseen
until CI runs.  This test reads the workflow the way the runner does
(YAML, then each step's shell ``run`` text) and checks every path
handed to ``pytest`` or ``python``.
"""

import os
import shlex

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "ci.yml")

#: pytest options that consume the next token as their value.
_PYTEST_VALUE_OPTIONS = {"-k", "-m", "-p", "-o", "--deselect", "--ignore",
                         "--rootdir", "-c"}


def _load():
    with open(WORKFLOW, encoding="utf-8") as handle:
        return yaml.safe_load(handle)


def _commands(script):
    """Shell words of each command in one ``run`` script, with heredoc
    bodies (inline Python) skipped and line continuations joined."""
    lines = script.replace("\\\n", " ").splitlines()
    heredoc_end = None
    for line in lines:
        if heredoc_end is not None:
            if line.strip() == heredoc_end:
                heredoc_end = None
            continue
        if "<<" in line:
            heredoc_end = line.split("<<", 1)[1].strip().strip("'\"")
        for part in line.replace("&&", ";").replace("|", ";").split(";"):
            try:
                words = shlex.split(part, comments=True)
            except ValueError:  # a quote split by the separators above
                words = part.split()
            if words:
                yield words


def _invocations(doc):
    """``(kind, target)`` for every ``pytest`` path, ``python`` script
    and ``python -m repro...`` module the workflow's steps run."""
    for job in doc["jobs"].values():
        for step in job.get("steps", ()):
            script = step.get("run")
            if not script:
                continue
            for words in _commands(script):
                for i, word in enumerate(words):
                    if os.path.basename(word) not in ("python", "python3"):
                        continue
                    rest = words[i + 1:]
                    if rest[:2] == ["-m", "pytest"]:
                        yield from _pytest_paths(rest[2:])
                    elif rest[:1] == ["-m"] and len(rest) > 1:
                        if rest[1].split(".")[0] == "repro":
                            yield "module", rest[1]
                    elif rest and not rest[0].startswith("-") \
                            and "$" not in rest[0]:
                        yield "script", rest[0]
                    break


def _pytest_paths(args):
    skip = False
    for arg in args:
        if skip:
            skip = False
        elif arg in _PYTEST_VALUE_OPTIONS:
            skip = True
        elif not arg.startswith("-") and "$" not in arg:
            yield "pytest", arg.split("::", 1)[0]


def _module_exists(name):
    path = os.path.join(ROOT, "src", *name.split("."))
    return (os.path.isfile(path + ".py")
            or os.path.isfile(os.path.join(path, "__main__.py")))


class TestWorkflow:
    def test_parses_as_yaml(self):
        doc = _load()
        assert isinstance(doc, dict) and doc.get("jobs"), doc
        for name, job in doc["jobs"].items():
            assert job.get("steps"), name

    def test_every_path_handed_to_pytest_or_python_exists(self):
        missing = []
        for kind, target in _invocations(_load()):
            if kind == "module":
                ok = _module_exists(target)
            else:
                ok = os.path.exists(os.path.join(ROOT, target))
            if not ok:
                missing.append((kind, target))
        assert not missing, missing

    def test_scan_sees_the_known_invocations(self):
        # Guards the scan itself: these are run today.
        found = set(_invocations(_load()))
        assert ("pytest", "benchmarks/e2e") in found
        assert ("pytest", "tests/sim/test_engine.py") in found
        assert ("pytest", "benchmarks/bench_hotpath.py") in found
        assert ("module", "repro.harness.sweep") in found
        assert ("module", "repro.service") in found
        assert not any(target.startswith("$") for _, target in found)
