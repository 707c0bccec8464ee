"""Set-up probe, run in a fresh interpreter by run.py.

Times importing iciroot (and its command-line module) plus parsing,
differentiating and compiling f and f' for every function of a workload,
then prints the elapsed seconds as its only output line.

    python3 perfbench/probe.py SRC_DIR REQUEST_JSON
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
request = json.loads(sys.argv[2])

import iciroot.cli  # noqa: E402,F401
from iciroot import Precision, expr  # noqa: E402

p = Precision(request["digits"])
for text, complex_mode in request["functions"]:
    tree = expr.parse(text)
    var = expr.free_variables(tree).pop()
    expr.compile_fn(tree, var, p, complex_mode)
    expr.compile_fn(expr.differentiate(tree, var), var, p, complex_mode)
print(time.perf_counter() - t0)
