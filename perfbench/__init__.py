"""End-to-end and per-layer benchmark of the magspec package.

Run one workload per process with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see README.md.
"""
