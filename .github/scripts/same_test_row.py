"""Exit 0 only when a run's results.csv and an `eval` results file hold
one test row each and the two are equal in every column but wall_seconds.

    python3 .github/scripts/same_test_row.py RUN/results.csv EVAL.csv
"""

import csv
import sys


def read_test_rows(path):
    with open(path) as fh:
        return [row for row in csv.DictReader(fh) if row["split"] == "test"]


trained, evaluated = map(read_test_rows, sys.argv[1:])
for row in trained + evaluated:
    del row["wall_seconds"]
print("results.csv test row:", trained)
print("eval test row:       ", evaluated)
sys.exit(len(trained) != 1 or trained != evaluated)
