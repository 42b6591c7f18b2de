"""The traced benchmark run finds a call in every span it requires.

``layerbench/layers.py`` fails a traced run when a required span records no
call: each of ``ORACLE_SPANS`` and ``SCAN_SPANS``, and one
``reference.<check>`` span per verify check.  A library change that routes a
call around one of those functions would break only that run, so this test
installs ``layerbench/spans.py`` the way ``layers.in_process`` does and
runs small versions of the traced commands through ``cli.main``.  It runs
in a fresh interpreter, since the wrappers replace functions in every
loaded framedrag module, and with ``-B``, so it writes nothing under
``layerbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
ARGVS = [["verify"], ["hom", "--set", "interference.bins=64"],
         ["fig1", "--points", "64"], ["fig3", "--points", "64"]]

# Prints [the exit code of each argv, {required span: calls}].
PROBE = """
import json, sys
import layers, spans
from _cli_helpers import run
from framedrag import reference

checks = [name for name in dir(reference) if name.startswith("check_")]
labels = {f"reference.{name}": (lambda res, name=name: f"reference.{getattr(res, 'name', name)}")
          for name in checks}
recorder = spans.Recorder()
spans.install(recorder, layers.TARGETS + [(f"reference.{name}", "framedrag.reference", name)
                                          for name in checks], labels)
codes = [run(argv)[0] for argv in json.loads(sys.argv[1])]
summary = recorder.summary()
required = [*layers.ORACLE_SPANS, *layers.SCAN_SPANS,
            *(f"reference.{row.name}" for row in reference.CHECKS)]
print(json.dumps([codes, {name: summary.get(name, {}).get("calls", 0) for name in required}]))
"""


def test_every_required_span_of_the_traced_run_records_a_call():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(TESTS), str(ROOT / "layerbench"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-B", "-c", PROBE, json.dumps(ARGVS)],
                          capture_output=True, text=True, env=env, check=True)
    codes, calls = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(ARGVS)
    assert len(calls) > 17  # the spans of both segments and one per check
    assert {name: count for name, count in calls.items() if count == 0} == {}
