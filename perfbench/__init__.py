"""The repository's steady end-to-end benchmark (see ``NOTES.md``).

Run it from the repository root::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 30 \\
        --trace 0
"""
