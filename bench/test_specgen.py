"""Tests of the specs_pointwise input generator.

Not part of the default test run; run with

    python3 -m pytest bench/test_specgen.py
"""

import json

import pytest

import specgen
from prodgeo import spec_from_json, spec_to_json

CYCLE = len(specgen.SLOTS)


@pytest.fixture(scope="module")
def stream():
    return [specgen.spec_input(7, i) for i in range(CYCLE)]


def test_stream_is_a_pure_function_of_seed_and_index(stream):
    assert [specgen.spec_input(7, i) for i in range(CYCLE)] == stream
    assert specgen.spec_input(7, 40) == stream[40]
    assert [specgen.spec_input(8, i).doc for i in range(CYCLE)] != [s.doc for s in stream]


def test_every_spec_round_trips_through_json(stream):
    for s in stream:
        spec = spec_from_json(s.doc)
        assert spec_to_json(spec) == s.doc
        assert spec_from_json(spec_to_json(spec)) == spec
        assert spec.has_composition is s.composite
        assert spec.n == s.n == len(s.probes[0])


def test_specs_are_distinct_and_sized_as_slotted(stream):
    assert len({s.doc for s in stream}) == CYCLE
    for s in stream:
        size, n, kind = specgen.SLOTS[s.index]
        assert (n, kind == "composite") == (s.n, s.composite)
        assert 0.8 * size <= specgen.node_count(s.doc) <= 1.6 * size


def test_reference_function_reads_the_document_alone(stream):
    s = next(s for s in stream if s.composite)
    f = specgen.reference_function(s.doc)
    body = json.loads(s.doc)["body"]
    assert f(list(s.probes[0])) > 0.0
    assert specgen.node_count(s.doc) == len(json.dumps(body).split("[")) - 1
