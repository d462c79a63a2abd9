"""HTML reproduction scorecard (repro.obs.report).

``tests/data/report_digests.json`` pins the sha256 of every kind of text
the report layer writes (:func:`report_documents`), recorded before the
renderers became section specs over shared primitives:
``PYTHONPATH=src python -m tests.test_scorecard`` re-records it after a
deliberate change of an output.
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import pathlib
import tempfile
import xml.etree.ElementTree as ET

import pytest

from repro.cli import main
from repro.errors import AnalysisError
from repro.experiments.chaos import chaos_campaign
from repro.experiments.congestion import congestion_campaign
from repro.obs.diff import diff_runs
from repro.obs.flight import Flight, FlightConfig
from repro.obs.forensics import Forensics
from repro.obs.heatmap import (
    flight_timeline_svg,
    hotspot_heatmap_svg,
    latency_breakdown_svg,
    standalone_svg,
)
from repro.obs.report import (
    PaperRef,
    figures_from_results,
    flight_entries,
    paper_reference,
    reliability_curves,
    render_diff_html,
    render_scorecard,
    statehash_entries,
    write_scorecard,
)
from repro.obs.statehash import StateHash
from repro.profiles import Profile
from repro.sim.run import simulate, tree_config
from repro.traffic.transport import TransportConfig

from .conftest import small_cube_config, small_tree_config

PINNED = pathlib.Path(__file__).parent / "data" / "report_digests.json"


@pytest.fixture(scope="module")
def mixed_results():
    """A small two-figure result set: tree sweep + one cube point."""
    tree = [
        simulate(small_tree_config(load=load, seed=3)) for load in (0.1, 0.3, 0.6)
    ]
    cube = [simulate(small_cube_config(load=0.2, seed=3))]
    return tree + cube


class TestPaperReference:
    def test_fig5_lookup_by_vcs(self):
        ref = paper_reference("tree", 4, 4, "tree_adaptive", 4, "uniform")
        assert ref.figure == "Fig 5"
        assert ref.saturation == 0.72
        assert paper_reference("tree", 4, 4, "tree_adaptive", 1, "uniform").saturation == 0.36

    def test_fig6_lookup_by_algorithm(self):
        dor = paper_reference("cube", 16, 2, "dor", 4, "uniform")
        duato = paper_reference("cube", 16, 2, "duato", 4, "uniform")
        assert dor.figure == duato.figure == "Fig 6"
        assert dor.saturation == 0.60
        assert duato.saturation == 0.80
        assert dor.latency_presat == 70.0

    def test_unreported_configurations_have_no_ref(self):
        # wrong shape, wrong vcs, extension pattern: all unscored
        assert paper_reference("tree", 2, 2, "tree_adaptive", 2, "uniform") is None
        assert paper_reference("cube", 16, 2, "dor", 2, "uniform") is None
        assert paper_reference("cube", 16, 2, "dor", 4, "tornado") is None


class TestFigures:
    def test_grouping(self, mixed_results):
        figures = figures_from_results(mixed_results)
        assert len(figures) == 2  # one per (network, k, n, pattern)
        by_title = {f.title: f for f in figures}
        tree = by_title["tree 2-ary 2-dim, uniform traffic"]
        assert len(tree.series) == 1
        assert len(tree.series[0].points) == 3
        assert tree.saturation[tree.series[0].label] > 0

    def test_small_networks_are_unscored(self, mixed_results):
        # test-sized shapes are not paper configurations
        for fig in figures_from_results(mixed_results):
            assert fig.refs == {}
            assert fig.score is None

    def test_fidelity_is_relative_saturation_error(self, mixed_results):
        figures = figures_from_results(mixed_results)
        fig = figures[1]  # tree
        label = fig.series[0].label
        # graft a synthetic paper ref and recompute the score by hand
        sat = fig.saturation[label]
        ref_sat = sat / 0.8  # measured is 20% below "paper"
        fig.fidelity[label] = max(0.0, 1.0 - abs(sat - ref_sat) / ref_sat)
        assert fig.score == pytest.approx(0.8, abs=1e-9)

    def test_empty_results_rejected(self):
        with pytest.raises(AnalysisError, match="no runs"):
            figures_from_results([])


class TestHtml:
    def test_one_svg_per_figure_and_well_formed(self, tmp_path, mixed_results):
        out = tmp_path / "scorecard.html"
        figures = write_scorecard(mixed_results, out, title="test card")
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert text.count("<svg") == len(figures) == 2
        # every <svg> block must parse as XML (it is inline markup)
        all_tags = set()
        for chunk in text.split("<svg")[1:]:
            svg = "<svg" + chunk.split("</svg>")[0] + "</svg>"
            root = ET.fromstring(svg)
            tags = {child.tag.split("}")[-1] for child in root.iter()}
            assert "circle" in tags  # data points always rendered
            all_tags |= tags
        # the 3-point tree sweep gets connected curves (a single-point
        # series renders markers only)
        assert "polyline" in all_tags
        assert "test card" in text

    def test_self_contained(self, tmp_path, mixed_results):
        figures = write_scorecard(mixed_results, tmp_path / "s.html")
        text = (tmp_path / "s.html").read_text()
        # no external assets: no scripts, stylesheets or images to fetch
        assert "<script" not in text
        assert "<link" not in text
        assert "<img" not in text
        assert "<style>" in text
        for fig in figures:
            assert fig.title in text

    def test_unscored_card_says_so(self, mixed_results):
        html_text = render_scorecard(figures_from_results(mixed_results))
        assert "No series matches a paper-reported" in html_text
        assert "unscored" in html_text

    def test_reference_overlay_rendered_when_scored(self, mixed_results):
        figures = figures_from_results(mixed_results)
        fig = figures[0]
        label = fig.series[0].label
        from repro.obs.report import PaperRef

        fig.refs[label] = PaperRef(figure="Fig 6", saturation=0.6, latency_presat=70.0)
        fig.fidelity[label] = 0.95
        html_text = render_scorecard(figures)
        assert "paper 0.6" in html_text  # dashed saturation marker label
        assert "Overall fidelity" in html_text
        assert "95%" in html_text


@functools.lru_cache(maxsize=None)
def report_documents() -> dict[str, str]:
    """Every kind of text the report layer writes, over one fixed small
    result set: plain tree and cube curves, a forensics run, a chaos pair
    (zero-fault baseline included) under a transport that gives packets
    up, an open/closed overload pair whose last run kept no latencies, all
    four flight-recorded, and two state-digested replicas."""
    profile = Profile(name="pin", warmup_cycles=100, total_cycles=500, sweep_points=2)
    shape = dict(k=2, n=2, seed=11, **profile.windows)
    plain = [simulate(small_tree_config(load=load, seed=3)) for load in (0.1, 0.3, 0.6)]
    plain += [
        simulate(small_cube_config(load=load, seed=3, algorithm=algorithm))
        for algorithm in ("dor", "duato")
        for load in (0.2, 0.5)
    ]
    cube_forensics = simulate(small_cube_config(load=0.7, pattern="transpose"), [Forensics()])
    tree_forensics = simulate(small_tree_config(load=0.7, pattern="transpose"), [Forensics()])
    storms = chaos_campaign(
        tree_config(**shape), fault_rates=(0.0, 0.2), loads=[0.4], storm_seed=9,
        transport=TransportConfig(base_timeout=16, max_retries=1),
        instruments=[Flight(FlightConfig(interval_cycles=64))], profile=profile,
    )
    overload = congestion_campaign(
        tree_config(vcs=2, pattern="transpose", **shape), loads=[0.4, 0.9],
        transport=TransportConfig(base_timeout=32, max_retries=2),
        instruments=[Flight(FlightConfig(interval_cycles=32, collapse_intervals=2))],
        profile=profile,
    )
    chaos = [run for series in storms for run in series.results]
    congestion = [run for series in overload for run in series.results]
    congestion[-1] = dataclasses.replace(congestion[-1], latencies=[])
    replicas = [simulate(small_tree_config(seed=7), [StateHash()]) for _ in range(2)]
    results = plain + [cube_forensics, tree_forensics] + chaos + congestion + replicas

    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        write_scorecard(results, tmp / "card.html", title="pinned <card>")
        docs["scorecard"] = (tmp / "card.html").read_text(encoding="utf-8")
        # the files and the page `repro analyze` writes, off a ledger
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([
                "run", "--network", "cube", "--k", "4", "--n", "2", "--pattern", "transpose",
                "--load", "0.7", "--profile", "fast", "--forensics",
                "--ledger", str(tmp / "runs.jsonl"),
            ]) == 0
            assert main([
                "analyze", "--ledger", str(tmp / "runs.jsonl"), "--metric", "flits",
                "--heatmap", str(tmp / "hot.svg"), "--breakdown", str(tmp / "brk.svg"),
                "--out", str(tmp / "page.html"),
            ]) == 0
        for name in ("hot.svg", "brk.svg", "page.html"):
            docs[f"analyze/{name}"] = (tmp / name).read_text(encoding="utf-8")

    # every paper-reference branch: overlays on both panels, the three
    # fidelity classes, a series the paper does not report
    figures = figures_from_results(plain)
    cube, tree = figures
    dor, duato = (series.label for series in cube.series)
    cube.refs[dor] = PaperRef(figure="Fig 6", saturation=0.6, latency_presat=70.0)
    cube.fidelity[dor] = 0.95
    cube.refs[duato] = PaperRef(figure="Fig 6", saturation=0.8)
    cube.fidelity[duato] = 0.75
    tree.refs[tree.series[0].label] = PaperRef(figure="Fig 5", saturation=0.36)
    tree.fidelity[tree.series[0].label] = 0.4
    docs["scorecard/scored"] = render_scorecard(figures, title="scored card")

    # the fallback axis limits (no fault struck, nothing retransmitted) and
    # a replica pair whose chain heads disagree, one with no sampled root
    baseline = chaos_campaign(tree_config(**shape), (0.0,), loads=[0.4], profile=profile)[0].results
    (label, chain), (twin, _) = statehash_entries(replicas)
    forked = [(label, chain), (twin, {**chain, "chain_head": "0" * 64, "roots": []})]
    docs["scorecard/fallbacks"] = render_scorecard(
        [], reliability=reliability_curves(list(baseline)), statehash=forked
    )

    same = small_cube_config(load=0.5)
    docs["diff/identical"] = render_diff_html(diff_runs(same, same))
    docs["diff/diverged"] = render_diff_html(
        diff_runs(same, small_cube_config(load=0.5, arbiter="age"), max_findings=4),
        title="pinned & diverged",
    )

    hot = cube_forensics.telemetry.forensics
    docs["svg/heatmap"] = hotspot_heatmap_svg(hot["hotspots"])
    docs["svg/heatmap-tree-flits"] = hotspot_heatmap_svg(
        tree_forensics.telemetry.forensics["hotspots"], metric="flits", title="flits <per switch>"
    )
    docs["svg/breakdown"] = latency_breakdown_svg(hot["attribution"])
    for label, flight in flight_entries(results):
        docs[f"svg/timeline/{label}"] = flight_timeline_svg(flight)
    for name in ("svg/heatmap", "svg/breakdown"):
        docs[f"standalone/{name}"] = standalone_svg(docs[name])
    return docs


class TestPinnedBytes:
    """The report layer's outputs, byte for byte, against the digests
    recorded at the commit before its renderers were rewritten."""

    def test_every_document_matches_its_pinned_digest(self):
        pinned = json.loads(PINNED.read_text(encoding="utf-8"))
        got = {
            name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in report_documents().items()
        }
        assert got == pinned

    def test_the_fixture_reaches_the_branches_it_is_there_for(self):
        docs = report_documents()
        card = docs["scorecard"]
        for heading in (
            "congestion forensics (", "Reliability under fail-stop", "Congestion collapse",
            "Dynamics (flight recorder)", "State-digest audit", "wait-for graph:",
        ):
            assert heading in card, heading
        # a run that kept no latencies, a given-up count, a collapse onset
        assert '<td class="num">—</td>' in card
        assert '<td class="num warn">' in card
        assert '<td class="warn">collapse_onset</td>' in card
        assert "pinned &lt;card&gt;" in card
        for cls in ("good", "warn", "bad"):
            assert f'<td class="{cls}">' in docs["scorecard/scored"]
        assert "paper ≈70" in docs["scorecard/scored"]
        # the reliability panel's fallback axes: x to 0.25, overhead to 0.1
        fallbacks = docs["scorecard/fallbacks"]
        assert 'class="tick">0.25</text>' in fallbacks
        assert 'class="tick ylab">0.1</text>' in fallbacks
        assert '<td class="bad">diverged</td>' in fallbacks
        assert "IDENTICAL" in docs["diff/identical"]
        assert "Bisected to cycle" in docs["diff/diverged"] and "more differing" in docs["diff/diverged"]
        assert docs["analyze/hot.svg"].startswith("<svg") and "<h1>" in docs["analyze/page.html"]


if __name__ == "__main__":
    PINNED.write_text(
        json.dumps(
            {
                name: hashlib.sha256(text.encode("utf-8")).hexdigest()
                for name, text in report_documents().items()
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
