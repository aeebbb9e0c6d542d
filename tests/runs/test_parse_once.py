"""Each unique source is lexed and parsed once per process.

Every parse in ``src/`` goes through the content-addressed parse tier of the
default :class:`~repro.verilog.design.DesignDatabase`: the syntax checker,
the simulators' compiles, the analyzer, the dataset generators and the
corruption injector's structure check.  A tiny Table IV sweep, datasets and
HaVen fine-tuning included, must therefore call
:func:`repro.verilog.parser.parse_source` exactly once per distinct source,
and leave every shared AST as it parsed.
"""

from __future__ import annotations

from collections import Counter

import repro.verilog.design as design
import repro.verilog.parser as parser
from repro.experiments import ExperimentScale
from repro.runs.engine import RunEngine
from repro.runs.presets import table4_manifest
from repro.runs.store import RunStore
from repro.verilog.errors import VerilogError


def test_tiny_table4_run_parses_each_unique_source_once(monkeypatch):
    calls: Counter[str] = Counter()
    parse_source = parser.parse_source

    def counting_parse_source(source: str):
        calls[source] += 1
        return parse_source(source)

    # ``design`` binds the name at import; ``parser.parse_module`` looks it up
    # in its own module, so patching both catches every parse.
    monkeypatch.setattr(parser, "parse_source", counting_parse_source)
    monkeypatch.setattr(design, "parse_source", counting_parse_source)
    database = design.DesignDatabase()
    previous = design.set_default_database(database)
    try:
        manifest = table4_manifest(ExperimentScale.tiny())
        assert any(profile.kind == "haven" for profile in manifest.profiles)
        RunEngine(manifest, RunStore.ephemeral()).run()
    finally:
        design.set_default_database(previous)
    # The whole run fits the parse tier, so nothing was evicted and re-parsed.
    assert 100 < len(calls) < database.max_entries
    assert {source[:60]: count for source, count in calls.items() if count > 1} == {}
    # Every consumer treated the shared ASTs as read-only: each cached tree
    # still equals a fresh parse of its source.
    monkeypatch.undo()
    for source in calls:
        try:
            fresh = parser.parse_source(source)
        except VerilogError:
            continue
        assert database.parse(source) == fresh, source[:60]
