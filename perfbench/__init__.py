"""The repository benchmark: cold missions, a warm-truth sensing sweep and
the fleet service, with a separate traced run for per-layer numbers.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
