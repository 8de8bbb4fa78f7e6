"""The report records and the start-up they keep cheap.

Every command is a fresh process, so the package's import is paid on each
one; the records are plain slotted classes on errors.Record, and the
package imports no dataclasses machinery (which would pull in inspect,
ast, dis and tokenize and compile code for each class)."""

import json
import os
import subprocess
import sys

import pytest

import holopoisson
from holopoisson.algebroid import AlgebroidReport, RealPartsReport, YaoReport
from holopoisson.cli import corpus_path
from holopoisson.cohomology import (
    BettiReport,
    BlockReport,
    CellReport,
    Truncation,
)
from holopoisson.poisson import FoliationReport, HoloPoissonReport, PNReport


def probe_cli_process(value, runs=()):
    """The repr of the expression value in a bare ``python -S`` process
    (no site module, so nothing preloads modules) at three points: before
    ``import holopoisson.cli``, after it, and after a successful
    ``cli.main`` on each command line of runs, each writing its report to
    os.devnull."""
    package = os.path.dirname(os.path.abspath(holopoisson.__file__))
    probe = (f"import atexit, os, sys; before = {value}; "
             f"import holopoisson.cli; imported = {value}; "
             "assert not any(holopoisson.cli.main(args + ['-o', os.devnull])"
             f" for args in {list(runs)!r}); "
             f"print(before, imported, {value}, sep='\\n')")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.splitlines()


def loaded_by_cli_import(names, runs=()):
    """Which of names are imported after the CLI import and runs."""
    return probe_cli_process(f"sorted({set(names)!r} & set(sys.modules))",
                             runs)[-1]


def test_cli_import_loads_no_dataclasses_or_inspect():
    assert loaded_by_cli_import({"dataclasses", "inspect"}) == "[]"


def test_cli_import_loads_no_corpus_machinery():
    """importlib.resources, and the typing, pathlib and tempfile it pulls
    in, are imported only by the commands that read the corpus."""
    assert loaded_by_cli_import({"importlib.resources", "pathlib",
                                 "tempfile", "typing"}) == "[]"


# argparse with its gettext and locale, and fractions with decimal, cost
# more start-up than most commands take
STARTUP_EXTRAS = {"argparse", "gettext", "locale", "fractions", "decimal"}
# the command lines the probes run after the import
COMMAND_RUNS = [["check-poisson", corpus_path("quadratic.json")],
                ["realparts-check", corpus_path("sl2.json")],
                ["cohomology", corpus_path("sl2.json"), "--weight", "2"]]


def test_cli_import_loads_no_argparse_or_fractions():
    assert loaded_by_cli_import(STARTUP_EXTRAS) == "[]"


def test_commands_load_no_argparse_or_fractions():
    """Reading the command line, formatting scalars and realifying a Lie
    algebra import none of them either."""
    assert loaded_by_cli_import(STARTUP_EXTRAS, COMMAND_RUNS) == "[]"


# the atexit callbacks and the threading module's threads: os._exit, which
# ends every CLI process (cli.run), runs no atexit hook (weakref.finalize
# registers one too) and joins no thread
TEARDOWN_STATE = ("(atexit._ncallbacks(), sys.modules['threading']"
                  ".active_count() if 'threading' in sys.modules else 1)")


def test_cli_leaves_nothing_for_teardown():
    """Importing the CLI and running commands registers no atexit hook and
    starts no thread, so skipping interpreter teardown loses nothing."""
    before, imported, ran = probe_cli_process(TEARDOWN_STATE, COMMAND_RUNS)
    assert before == imported == ran


def test_records_compare_and_hash_by_value():
    a = PNReport(True, False, True, True)
    b = PNReport(True, False, True, True)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != PNReport(True, True, True, True)
    # records of different types never compare equal, even with equal fields
    assert RealPartsReport(True, True) != FoliationReport(True, True, True)
    assert RealPartsReport(True, False) != (True, False)
    cell = CellReport(0, 1, 3, 2, 1, 3, 0)
    block = BlockReport(2, (cell,), (3,), (2,))
    report = BettiReport("weight", 2, "sparse", "exact", (block,))
    again = BettiReport("weight", 2, "sparse", "exact",
                        (BlockReport(2, (CellReport(0, 1, 3, 2, 1, 3, 0),),
                                     (3,), (2,)),))
    assert report == again and hash(report) == hash(again)
    assert report.block(2) is block


def test_records_repr_names_every_field():
    assert repr(PNReport(True, False, True, True)) == (
        "PNReport(schouten_zero=True, sharp_intertwine=False, "
        "koszul_compat=True, torsion_zero=True)")
    assert repr(Truncation("weight", 3)) == (
        "Truncation(mode='weight', bound=3)")


def test_records_take_exactly_their_fields():
    with pytest.raises(TypeError):
        RealPartsReport(True)
    with pytest.raises(TypeError):
        RealPartsReport(True, True, True)
    with pytest.raises(AttributeError):
        RealPartsReport(True, True).extra = 1



# every report record with the key of its verdict (None: it has no verdict)
REPORTS = [(HoloPoissonReport, "holomorphic_poisson"),
           (PNReport, "poisson_nijenhuis"), (AlgebroidReport, "lie_algebroid"),
           (RealPartsReport, "realparts"), (YaoReport, "yao_isomorphism"),
           (FoliationReport, None), (CellReport, None), (BlockReport, None),
           (BettiReport, None)]
VERDICT_REPORTS = [cls for cls, verdict in REPORTS if verdict]


@pytest.mark.parametrize("cls, verdict", REPORTS,
                         ids=[cls.__name__ for cls, _ in REPORTS])
def test_as_dict_is_the_slots_in_order_then_the_verdict(cls, verdict):
    record = cls(*range(1, len(cls.__slots__) + 1))
    plain = record.as_dict()
    assert list(plain) == list(cls.__slots__) + ([verdict] if verdict else [])
    for name in cls.__slots__:
        assert plain[name] == getattr(record, name)


def test_verdict_text_keeps_its_key_order():
    """The key order is part of the bytes: cotangent_algebroid puts this
    dict into its error message, which reaches the JSON report."""
    assert str(HoloPoissonReport(False, True).as_dict()) == (
        "{'dbar_zero': False, 'schouten_zero': True, "
        "'holomorphic_poisson': False}")


def _plain_json(value):
    """True when value holds only dicts, lists, str, int and bool."""
    if isinstance(value, dict):
        return all(type(key) is str and _plain_json(item)
                   for key, item in value.items())
    if isinstance(value, list):
        return all(_plain_json(item) for item in value)
    return type(value) in (str, int, bool)


def test_nested_report_renders_as_plain_dicts_and_lists():
    cell = CellReport(0, 1, 3, 2, 1, 3, 0)
    report = BettiReport("weight", 2, "sparse", "exact_weight_graded",
                         (BlockReport(2, (cell,), (3, 4), (2, 1)),))
    plain = report.as_dict()
    assert _plain_json(plain)
    assert json.dumps(plain) == (
        '{"mode": "weight", "bound": 2, "method": "sparse", '
        '"label": "exact_weight_graded", "blocks": [{"weight": 2, '
        '"cells": [{"k": 0, "l": 1, "dim": 3, "ker_A": 2, "rank_A": 1, '
        '"ker_B": 3, "rank_B": 0}], "total_dims": [3, 4], '
        '"total_betti": [2, 1]}]}')


@pytest.mark.parametrize("cls", VERDICT_REPORTS,
                         ids=[cls.__name__ for cls in VERDICT_REPORTS])
def test_verdict_is_false_once_any_field_is(cls):
    width = len(cls.__slots__)
    record = cls(*[True] * width)
    assert record.all_ok is True and record.as_dict()[cls.VERDICT] is True
    for k in range(width):
        values = [True] * width
        values[k] = False
        record = cls(*values)
        assert record.all_ok is False
        assert record.as_dict()[cls.VERDICT] is False
