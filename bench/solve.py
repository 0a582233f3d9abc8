"""The API job: analyse one absorbing chain with ``cbrchain.markov``.

Run as a script, this is the child worker of an untraced run:

    PYTHONPATH=src python3 bench/solve.py CHAIN_JSON RESULT_JSON

It reads a chain written by ``gen.chain``, writes the result as
:func:`to_json` renders it, and prints the seconds the analysis alone
took. The tracer calls :func:`analyse` in process instead.
"""

from __future__ import annotations

import json
import sys
import time


def analyse(doc: dict) -> dict:
    """Validate, canonicalise and solve the chain; exact values as strings.

    Calls go through the module object so that the tracer's wrappers,
    installed on ``cbrchain.markov``, are the functions that run.
    """
    from cbrchain import markov

    m = markov.validate_stochastic(doc["states"], doc["rows"])
    c = markov.canonical_form(m)
    n = markov.fundamental_matrix(c)
    steps = markov.expected_absorption_steps(c)
    b = markov.absorption_probabilities(c)
    return {
        "absorbing": list(c.absorbing_states),
        "transient": list(c.transient_states),
        "N": n,
        "steps": steps,
        "B": b,
    }


def to_json(result: dict) -> str:
    """Render an :func:`analyse` result with every rational as a string."""
    def strs(rows):
        return [[str(v) for v in row] for row in rows]

    return json.dumps(
        {
            "absorbing": result["absorbing"],
            "transient": result["transient"],
            "N": strs(result["N"]),
            "steps": [str(v) for v in result["steps"]],
            "B": strs(result["B"]),
        }
    )


def main(argv: list[str]) -> int:
    chain_path, out_path = argv
    with open(chain_path, encoding="utf-8") as f:
        doc = json.load(f)
    start = time.perf_counter()
    result = analyse(doc)
    seconds = time.perf_counter() - start
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(to_json(result))
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
