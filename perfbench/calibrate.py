"""Speed calibration for run.py: a fixed pure-Python program that imports
nothing of udrfusion, so that no change to the program under test changes
its cost.

Like a udrfusion invocation, it starts a fresh interpreter, does integer
arithmetic mod p over lists of lists, builds a dict and encodes JSON.
run.py times it between the samples it takes and reports every time at a
reference speed (see README.md).  It prints nothing and exits 0.
"""

import json

P = 997
a = [[(i * j + 7) % P for j in range(64)] for i in range(64)]
for _ in range(2):
    a = [[sum(x * y for x, y in zip(row, col)) % P for col in zip(*a)] for row in a]
cells = {(i, j): v for i, row in enumerate(a) for j, v in enumerate(row)}
json.dumps([a, sorted(cells.values())])
