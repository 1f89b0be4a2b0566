"""Set-up probe: reads {"src", "graphs", "formulas"} as JSON on standard
input, times importing cardmso from src and parsing every text, and prints
the wall seconds and the reference seconds (speed.py). run.py starts it in
fresh processes so that each import is a first import."""

import json
import sys
import time

from speed import SpeedClock

job = json.load(sys.stdin)
sys.path.insert(0, job["src"])
clock = SpeedClock()
clock.start()
start = time.perf_counter()
import cardmso  # noqa: E402

for text in job["graphs"]:
    cardmso.parse_graph(text)
for text in job["formulas"]:
    cardmso.parse_formula(text)
end = time.perf_counter()
clock.stop()
print(end - start, clock.adjusted(start, end))
