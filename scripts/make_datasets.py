#!/usr/bin/env python3
"""Materialize the bundled real-network test data into edge files.

Writes, under --out (default ./data):

  karate.tsv, karate_labels.tsv   weighted karate-club network with the
                                  post-split club affiliations (member 9
                                  joined the officers' club, giving the
                                  16/18 split)
  lesmis.tsv                      weighted character co-occurrence network

Both graphs ship inside networkx, so no download happens. The political
weblogs network is not redistributable from here: download polblogs.gml
(e.g. from the well-known netdata collection) and drop it in the same
directory as data/polblogs.gml; the loaders and tests pick it up.
"""

import argparse
from pathlib import Path

import networkx as nx

# Post-split club rosters, 1-based member numbers.
MR_HI = {1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 17, 18, 20, 22}


def write_karate(out):
    G = nx.karate_club_graph()
    with open(out / "karate.tsv", "w", encoding="utf-8") as fh:
        for u, v, data in G.edges(data=True):
            fh.write(f"{u + 1} {v + 1} {data.get('weight', 1)}\n")
    with open(out / "karate_labels.tsv", "w", encoding="utf-8") as fh:
        for u in sorted(G.nodes):
            club = 1 if (u + 1) in MR_HI else 2
            fh.write(f"{u + 1} {club}\n")


def write_lesmis(out):
    G = nx.les_miserables_graph()
    with open(out / "lesmis.tsv", "w", encoding="utf-8") as fh:
        for u, v, data in G.edges(data=True):
            fh.write(f"{u} {v} {data.get('weight', 1)}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_karate(out)
    write_lesmis(out)
    print(f"wrote karate.tsv, karate_labels.tsv, lesmis.tsv under {out}/")
    if not (out / "polblogs.gml").exists():
        print("note: polblogs.gml not present; the weblogs checks will be skipped "
              "until you place it there")


if __name__ == "__main__":
    main()
