"""``tools/bench_record.py`` end to end, small, and ``tools/loc.py``'s exit
codes.  (``tools/pcsample.py --smoke`` is a CI step.)"""

import json
import os
import pathlib
import subprocess
import sys

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def run_document(speed: float, **phases: float) -> str:
    metrics = {f"sim.{phase}_s": {"value": seconds, "unit": "s"} for phase, seconds in phases.items()}
    if not phases:
        metrics = {"sim_cycles_per_s": {"value": speed, "unit": "cycles/s"}}
    return "a line of the table above the document\n" + json.dumps(
        {"correct": True, "attempted": 7, "failed": 0, "metrics": metrics}
    )


def test_bench_record_appends_one_record_per_invocation(tmp_path):
    runs = tmp_path / "runs"
    for side, speeds in (("parent", (5000.0, 5200.0, 5100.0)), ("change", (6000.0,))):
        where = runs / side / "paper_sat"
        where.mkdir(parents=True)
        for seed, speed in enumerate(speeds):
            (where / f"seed{seed}.json").write_text(run_document(speed))
        (where / "traced.json").write_text(run_document(0.0, link=0.4, injection=0.1, crossbar=0.2, routing=0.1))
    out = tmp_path / "BENCH_perf.json"
    command = [sys.executable, str(TOOLS / "bench_record.py"), str(runs), "--pr", "21", "--title", "a title",
               "--kernel", "yes", "--out", str(out)]
    subprocess.run(command, check=True, timeout=60)
    subprocess.run(command, check=True, timeout=60)
    first, second = json.loads(out.read_text())
    assert first == second and first["pr"] == 21 and first["kernel"] is True
    assert set(first["host"]) == {"cpu", "cpus", "python"}
    parent, change = (first["workloads"]["paper_sat"][side] for side in ("parent", "change"))
    speed = parent["end_to_end"]["sim_cycles_per_s"]
    assert (speed["q1"], speed["median"], speed["q3"]) == (5000.0, 5100.0, 5200.0)
    assert speed["values"] == [5000.0, 5200.0, 5100.0]
    assert change["end_to_end"]["sim_cycles_per_s"]["median"] == 6000.0  # one run is its own quartiles
    assert parent["phase_s"] == [{"link": 0.4, "injection": 0.1, "crossbar": 0.2, "routing": 0.1}]
    assert parent["failed"] == 0


def test_loc_refuses_a_root_that_does_not_exist(tmp_path):
    # CI's "Code lines under src/" step must not pass on a typo
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "module.py").write_text('"""Docstring."""\n\nX = 1  # one code line\n')
    command = [sys.executable, str(TOOLS / "loc.py")]
    counted = subprocess.run([*command, str(tmp_path / "pkg")], capture_output=True, text=True, timeout=60)
    assert counted.returncode == 0 and counted.stdout.split()[0] == "1"
    for missing in ("--help", str(tmp_path / "pkgg")):
        refused = subprocess.run([*command, missing], capture_output=True, text=True, timeout=60)
        assert refused.returncode == 2 and refused.stdout == ""
        assert refused.stderr.count("\n") == 1 and missing in refused.stderr


def test_loc_exits_quietly_when_the_reader_stops_early():
    # ``loc.py src | head -3``: the reader is gone before the first write
    read, write = os.pipe()
    os.close(read)
    try:
        closed = subprocess.run(
            [sys.executable, str(TOOLS / "loc.py"), str(TOOLS.parent / "src")],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write)
    assert closed.returncode == 0 and closed.stderr == ""
