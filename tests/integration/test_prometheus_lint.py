"""Promtool-style lint of the live ``/metrics`` exposition.

``promtool check metrics`` is not installable here, so this re-implements
its checks (plus the exposition-format rules scrapers actually enforce)
against a real scrape of a warmed, queried daemon: name/label charsets,
HELP/TYPE ordering, family contiguity, summary completeness, duplicate
series, and the worker-labelled families the telemetry plane adds.
"""

import re
import threading
import urllib.request

import pytest

from repro.experiments.harness import ExperimentScale, build_dataset
from repro.service.server import ServerConfig, create_server

SEED = 7
METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SERIES_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$"
)
LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)
VALID_TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}


@pytest.fixture(scope="module")
def scrape():
    scale = ExperimentScale(road_vertices=60, num_pois=20, num_users=40)
    network = build_dataset("UNI", scale, seed=SEED)
    config = ServerConfig(
        port=0, workers=2, backend="process", explain=True,
        timeout_sec=None,
    )
    server = create_server(network, config, build_args={"seed": SEED})
    server.service.warm()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        base_url = f"http://{host}:{port}"
        body = (
            '{"user": 3}\n{"user": 5, "tau": 3}\n'
            '{"user": 8, "gamma": 0.3, "theta": 0.4, "radius": 3.0}\n'
        ).encode()
        request = urllib.request.Request(
            base_url + "/query", data=body, method="POST"
        )
        with urllib.request.urlopen(request):
            pass
        with urllib.request.urlopen(base_url + "/metrics") as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            return response.read().decode("utf-8")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _parse(scrape):
    """Parse the exposition into (families, series), linting as we go.

    families: name -> {"help": str, "type": str}
    series: list of (family, name, labels-dict, value, line_no)
    """
    families = {}
    series = []
    pending_help = None
    current = None  # family whose block we are inside
    for line_no, line in enumerate(scrape.splitlines(), start=1):
        assert line == line.rstrip(), f"trailing whitespace on {line_no}"
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            assert len(parts) == 4 and parts[3], (
                f"line {line_no}: HELP needs a name and non-empty doc"
            )
            name = parts[2]
            assert METRIC_NAME_RE.match(name), f"bad family name {name!r}"
            assert name not in families, (
                f"line {line_no}: family {name} declared twice "
                "(series blocks must be contiguous)"
            )
            families[name] = {"help": parts[3], "type": None}
            pending_help = name
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert len(parts) == 4, f"line {line_no}: malformed TYPE"
            name, kind = parts[2], parts[3]
            assert name == pending_help, (
                f"line {line_no}: TYPE {name} does not follow its HELP"
            )
            assert kind in VALID_TYPES, f"unknown type {kind!r}"
            families[name]["type"] = kind
            current = name
            pending_help = None
            continue
        assert not line.startswith("#"), f"line {line_no}: stray comment"
        match = SERIES_RE.match(line)
        assert match, f"line {line_no}: unparsable series {line!r}"
        name, raw_labels, raw_value = match.groups()
        float(raw_value)  # must parse; raises otherwise
        labels = {}
        if raw_labels:
            consumed = LABEL_PAIR_RE.sub("", raw_labels).strip(", ")
            assert consumed == "", (
                f"line {line_no}: unparsable label fragment {consumed!r}"
            )
            for label, value in LABEL_PAIR_RE.findall(raw_labels):
                assert LABEL_NAME_RE.match(label)
                assert label not in labels, (
                    f"line {line_no}: duplicate label {label}"
                )
                assert "\n" not in value
                labels[label] = value
        assert current is not None, (
            f"line {line_no}: series before any TYPE block"
        )
        family = current
        if name != current:
            # Summaries expose <family>_count / <family>_sum series.
            assert (
                families[current]["type"] == "summary"
                and name in (current + "_count", current + "_sum")
            ), (
                f"line {line_no}: series {name} inside the {current} "
                "block (families must be contiguous)"
            )
        series.append((family, name, labels, float(raw_value), line_no))
    return families, series


@pytest.fixture(scope="module")
def parsed(scrape):
    return _parse(scrape)


class TestExpositionFormat:
    def test_parses_clean(self, parsed):
        families, series = parsed
        assert len(families) > 20
        assert len(series) >= len(families)

    def test_every_family_has_help_and_type(self, parsed):
        families, _ = parsed
        for name, meta in families.items():
            assert meta["help"], name
            assert meta["type"] in VALID_TYPES, name

    def test_no_duplicate_series(self, parsed):
        _, series = parsed
        seen = set()
        for _, name, labels, _, line_no in series:
            key = (name, tuple(sorted(labels.items())))
            assert key not in seen, f"line {line_no}: duplicate {key}"
            seen.add(key)

    def test_counters_are_non_negative(self, parsed):
        families, series = parsed
        for family, name, _, value, line_no in series:
            if families[family]["type"] == "counter":
                assert value >= 0, f"line {line_no}: {name} = {value}"

    def test_summaries_are_complete(self, parsed):
        families, series = parsed
        by_family = {}
        for family, name, labels, _, _ in series:
            by_family.setdefault(family, []).append((name, labels))
        for family, meta in families.items():
            if meta["type"] != "summary":
                continue
            names = {name for name, _ in by_family[family]}
            assert family + "_count" in names, family
            assert family + "_sum" in names, family
            quantiles = [
                labels["quantile"]
                for name, labels in by_family[family]
                if name == family and "quantile" in labels
            ]
            assert quantiles, family
            for q in quantiles:
                assert 0.0 <= float(q) <= 1.0, (family, q)


class TestWorkerFamilies:
    def test_worker_series_carry_the_worker_label(self, parsed):
        families, series = parsed
        worker_families = {
            family for family in families
            if family.startswith("gpssn_worker_")
        }
        assert "gpssn_worker_query_count" in worker_families
        for family, name, labels, _, line_no in series:
            if family in worker_families:
                assert "worker" in labels, f"line {line_no}: {name}"
                assert labels["worker"], f"line {line_no}: empty label"

    def test_worker_help_marks_the_dimension(self, parsed):
        families, _ = parsed
        for family, meta in families.items():
            if family.startswith("gpssn_worker_"):
                assert meta["help"].endswith("(per worker)"), family

    def test_worker_counters_match_their_aggregates(self, scrape, parsed):
        families, series = parsed
        totals = {}
        worker_sums = {}
        for family, name, labels, value, _ in series:
            if families[family]["type"] != "counter":
                continue
            if family.startswith("gpssn_worker_"):
                base = "gpssn_" + family[len("gpssn_worker_"):]
                worker_sums[base] = worker_sums.get(base, 0.0) + value
            elif not labels:
                totals[name] = value
        assert worker_sums  # the plane shipped per-worker counters
        for base, total in worker_sums.items():
            assert base in totals, base
            assert total == pytest.approx(totals[base]), base
