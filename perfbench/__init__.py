"""Wall-clock benchmark of the sparse FFT against the dense FFT.

Run it from the repository root::

    python3 perfbench/run.py --workload call-small --seed 1 --seconds 15 --trace 0

See ``run.py`` for the command line and ``BENCHMARK.json`` for the
workloads and metrics.
"""

#: Worker count of the executor the batch workload calls with.  Set here,
#: in a module that imports nothing, because ``run.py`` needs it to cap the
#: thread pools before NumPy is imported.
EXECUTOR_WORKERS = 2
