"""The 256-node performance benchmark matrix (see README.md beside this file).

``python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1``
measures one workload once; ``PYTHONPATH=src python -m benchmarks.perf``
runs the whole matrix with interleaved repeats.  Everything is measured
from outside the program: the harness times calls into public functions
and reads fields the results already carry.
"""
