"""Check the traces that ``contagion percolate`` printed for G(2000, 0.01), seed 1.

Usage: python check_traces.py R2_JSON R3_JSON GRAPH_FILE

R2_JSON is the run from seeds 0..39 at r = 2, R3_JSON the run from seeds 0..19
at r = 3.  The graph file is read here without the package, so the check does
not rest on the code it checks.
"""

import json
import sys

r2_path, r3_path, graph_path = sys.argv[1:]
# the graph file: a header "n m", then one "u v" per edge
with open(graph_path) as f:
    ids = [int(x) for x in f.read().split()]
rows = [[] for _ in range(ids[0])]
for u, v in zip(ids[2::2], ids[3::2]):
    rows[u].append(v)
    rows[v].append(u)
# (file, r, seed count, active count, tau): r = 2 spreads to all, r = 3 stalls after one round
for path, r, seeds, active, tau in ((r2_path, 2, 40, 2000, 3), (r3_path, 3, 20, 21, 1)):
    with open(path) as f:
        d = json.load(f)
    assert sum(d["per_round"]) == d["active_count"] - seeds, path
    assert d["tau"] == len(d["per_round"]) == max(g for g in d["generation"] if g is not None), path
    assert d["contagious"] == (d["active_count"] == 2000), path
    assert (d["active_count"], d["tau"]) == (active, tau), path
    # a vertex of round g >= 1 has r neighbours active by round g - 1 and fewer by g - 2;
    # one never active (ranked tau + 1) has fewer than r active neighbours
    rank = [tau + 1 if g is None else g for g in d["generation"]]
    for v, row in enumerate(rows):
        earlier = sum(rank[u] <= rank[v] - 1 for u in row)
        before = sum(rank[u] <= rank[v] - 2 for u in row)
        assert rank[v] == 0 or (earlier >= r > before if rank[v] <= tau else earlier < r), (path, v)
