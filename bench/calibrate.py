"""A fixed pure-Python reference job: regex tokenising, dict counting and
tuple building over a constant text, about 0.2 s on a 2-core Xeon VM.

The benchmark runs it in a fresh interpreter just before each CLI
invocation. The speed of a shared box drifts by 10-20 % over minutes, and
this job slows down with it, so the ratio of the CLI's wall time to this
job's (wall_rel) cancels most of the drift. It never imports classmetrics,
so no change to the program moves it.
"""

import re

WORD = re.compile(r"[A-Za-z_]\w*|\d+|\S")
TEXT = ("public void step(int a, int b) { if (a < b) { x = x + 1; } "
        "else { y = y - 1; } }\n") * 400

counts = {}
for _ in range(12):
    for token in WORD.findall(TEXT):
        counts[token] = counts.get(token, 0) + 1
    shapes = [(token, len(token), token.upper()) for token in WORD.findall(TEXT)]
