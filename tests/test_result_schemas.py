"""The field tables of the four result documents, held to real documents.

One faulted, traced, cached serving run emits all four: the
``repro.cluster.run/v2`` document, the ``repro.telemetry.series/v1``
series, and the JSONL and Chrome trace exports.  Every case is derived
from the tables themselves, so a field or table added later is covered
without editing this module:

- every table a document declares is reached by its real document;
- at every closed level, a planted undeclared key is named, and so is
  each required field when it is deleted;
- no JSON value anywhere in a document makes a validator raise.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import TenantSpec, serve_cluster, validate_cluster_run
from repro.cluster.result import DEVICE, RECOVERY, RUN, TENANT
from repro.devcache import DevCacheConfig
from repro.faults import DeviceCrash
from repro.schema import Map, Opt, OrNull, Table, Tagged
from repro.telemetry.series import HEADER, ROW, to_lines, validate_series
from repro.trace.export import (
    CHROME,
    CHROME_EVENT,
    EVENT,
    META,
    RECORD,
    SPAN,
    to_chrome,
    to_jsonl,
    validate_chrome,
    validate_jsonl,
)
from tests.conftest import SMALL_GEOMETRY

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the CI image
    HAVE_HYPOTHESIS = False


def _jsonl_text(doc) -> str:
    if not isinstance(doc, list):
        return json.dumps(doc)
    return "".join(json.dumps(rec) + "\n" for rec in doc)


#: name -> (validator, kind of the document or of its first line, kind of
#: every later line or None for a one-object document)
DOCUMENTS = {
    "cluster": (validate_cluster_run, RUN, None),
    "series": (validate_series, HEADER, ROW),
    "jsonl": (lambda doc: validate_jsonl(_jsonl_text(doc)), META, RECORD),
    "chrome": (validate_chrome, CHROME, None),
}


@pytest.fixture(scope="module")
def documents():
    """The four documents of one run that reaches every table: a torn
    crash that fires mid-store, the devcache echo, device/tenant/layer
    series rows, spans on both lanes with waits and attrs, and events."""
    tenants = [
        TenantSpec(name="a", workload="mixed", n_ops=12, device=0),
        TenantSpec(name="b", workload="light", n_ops=8, device=1),
    ]
    res = serve_cluster(
        tenants, fs_name="bytefs", n_devices=2, sched="drr", seed=42,
        geometry=SMALL_GEOMETRY, queue_depth=2, max_queue=256,
        devcache=DevCacheConfig(cache_bytes=64 * 4096, prefetch=True),
        faults=[DeviceCrash(0, after_ops=3, torn=True)],
        sample_every_ns=500_000, traced=True,
    )
    meta = {"fs": "bytefs", "workload": "serve"}
    return {
        "cluster": json.loads(json.dumps(res.to_json())),
        "series": [json.loads(line) for line in to_lines(res.telemetry)],
        "jsonl": [
            json.loads(line)
            for line in to_jsonl(res.trace, meta).splitlines()
        ],
        "chrome": json.loads(json.dumps(to_chrome(res.trace, meta))),
    }


def _roots(name, doc):
    """(path, value, kind) of each top-level record of ``doc``."""
    first, rest = DOCUMENTS[name][1:]
    if rest is None:
        return [([], doc, first)]
    return [([i], rec, rest if i else first) for i, rec in enumerate(doc)]


def _levels(value, kind, path):
    """(path, table) of every closed object of ``value``."""
    if isinstance(kind, (Opt, OrNull)):
        if value is not None:
            yield from _levels(value, kind.kind, path)
    elif isinstance(kind, Tagged):
        yield from _levels(value, kind.tables[value[kind.tag]], path)
    elif isinstance(kind, Table):
        yield path, kind
        for name, sub in kind.fields.items():
            if name in value:
                yield from _levels(value[name], sub, path + [name])
    elif isinstance(kind, Map):
        for key, item in value.items():
            yield from _levels(item, kind.kind, path + [key])
    elif isinstance(kind, list):
        for i, item in enumerate(value):
            yield from _levels(item, kind[0], path + [i])


def _first_levels(name, doc):
    """The first instance of each table in ``doc``: {id(table): (path,
    table)}."""
    out = {}
    for path, value, kind in _roots(name, doc):
        for sub_path, table in _levels(value, kind, path):
            out.setdefault(id(table), (sub_path, table))
    return out


def _declared_tables(kind, out):
    """Every table reachable from a declaration, by id."""
    if isinstance(kind, Tagged):
        for table in kind.tables.values():
            _declared_tables(table, out)
    elif isinstance(kind, Table):
        out[id(kind)] = kind
        for sub in kind.fields.values():
            _declared_tables(sub, out)
    elif isinstance(kind, (Opt, OrNull, Map)):
        _declared_tables(kind.kind, out)
    elif isinstance(kind, list):
        _declared_tables(kind[0], out)
    return out


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("name", DOCUMENTS)
def test_the_real_document_validates_and_reaches_every_table(
    name, documents
):
    validate, first, rest = DOCUMENTS[name]
    assert validate(documents[name]) == []
    declared = _declared_tables(first, {})
    if rest is not None:
        _declared_tables(rest, declared)
    assert set(_first_levels(name, documents[name])) == set(declared)


@pytest.mark.parametrize("name", DOCUMENTS)
def test_every_closed_level_names_undeclared_and_missing_keys(
    name, documents
):
    validate = DOCUMENTS[name][0]
    doc = documents[name]
    levels = _first_levels(name, doc).values()
    for path, table in levels:
        obj = _at(doc, path)
        obj["sneaky_debug"] = 1
        problems = validate(doc)
        del obj["sneaky_debug"]
        assert any("sneaky_debug" in p for p in problems), (path, problems)
        for field, kind in table.fields.items():
            if isinstance(kind, Opt):
                continue
            value = obj.pop(field)
            problems = validate(doc)
            obj[field] = value
            assert any(f"missing {field!r}" in p for p in problems), (
                path, field, problems,
            )
    assert validate(doc) == []


def test_the_named_levels_are_closed_levels_of_the_real_documents(
    documents
):
    named = {
        "cluster": [RUN, TENANT, DEVICE, RECOVERY, RECOVERY.fields["oracle"]],
        "series": [HEADER, *ROW.tables.values()],
        "jsonl": [META, SPAN, EVENT],
        "chrome": [CHROME_EVENT],
    }
    for name, tables in named.items():
        reached = _first_levels(name, documents[name])
        assert {id(t) for t in tables} <= set(reached), name


if HAVE_HYPOTHESIS:

    JSON = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=12,
    )

    def _paths(value, path=()):
        yield path
        if isinstance(value, dict):
            for key, item in value.items():
                yield from _paths(item, path + (key,))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from _paths(item, path + (i,))

    @pytest.mark.parametrize("name", DOCUMENTS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_validators_never_raise_on_any_json_value(
        name, documents, data
    ):
        doc = documents[name]
        path = data.draw(st.sampled_from(list(_paths(doc))))
        new = data.draw(JSON)
        if path:
            parent = _at(doc, path[:-1])
            old = parent[path[-1]]
            parent[path[-1]] = new
            try:
                problems = DOCUMENTS[name][0](doc)
            finally:
                parent[path[-1]] = old
        else:
            problems = DOCUMENTS[name][0](new)
        assert isinstance(problems, list)
        assert all(isinstance(p, str) for p in problems)
