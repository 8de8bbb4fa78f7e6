"""Byte-identity gate: every corpus document through every command.

golden_reports.json holds, for each (document, command) pair, the exit
code and the sha256 of the report the CLI prints.  cohomology and
foliation-rank take the options of the document's `expected` entry (with
none they stop with an input error, which is recorded the same way).
Regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

only when a report is meant to change, and say which pairs changed: it
prints each key it adds, removes or changes against the file it replaces.
"""

import contextlib
import hashlib
import io
import json
import os

from holopoisson.cli import COMMANDS, _load, corpus, corpus_path, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_reports.json")


def _argv(command, name):
    path = corpus_path(name)
    argv = [command, path]
    want = _load(path).get("expected", {}).get(command, {})
    for key, value in sorted(want.get("options", {}).items()):
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


def current_outputs():
    """{"<document> <command>": {"exit": code, "sha256": hex}}."""
    outputs = {}
    for name in corpus():
        for command in sorted(COMMANDS):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(_argv(command, name))
            digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            outputs[f"{name} {command}"] = {"exit": code, "sha256": digest}
    return outputs


def test_reports_match_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        want = json.load(handle)
    got = current_outputs()
    differ = sorted(key for key in want.keys() | got.keys()
                    if want.get(key) != got.get(key))
    assert not differ, f"reports differ from golden_reports.json: {differ}"


if __name__ == "__main__":
    old = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as handle:
            old = json.load(handle)
    new = current_outputs()
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            print(f"removed {key}")
        elif key not in old:
            print(f"added {key}: exit {new[key]['exit']}")
        elif old[key] != new[key]:
            print(f"changed {key}: exit {old[key]['exit']} -> "
                  f"{new[key]['exit']}")
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(new, handle, sort_keys=True, indent=2)
        handle.write("\n")
