"""The seeded corpus is pinned bit for bit.

The `fuzz` command's output and the `accept_fuzz` bench workload both
replay the seed-42 corpus, so any change to the generator that draws
differently from the random stream shows up here first.
"""
import hashlib

import pytest

from foltl.events import lasso_to_json
from foltl.formula import format_formula
from foltl.gen import GenBounds, case_rng, gen_formula, gen_lasso

# sha256 over one "formula lasso" line per case, cases 0 to 999.
CORPUS_SHA256 = {
    (4, 3): "64f3b8488318be841c20f995e300d52c0dd0117030c4f9e47525dc17d9b0469e",
    (3, 2): "7060576b98d17b317c60d5d4198bca0df58ff77f90b9e579ee5b115448f31742",
}


@pytest.mark.parametrize("depth, quantifiers", sorted(CORPUS_SHA256))
def test_seed_42_corpus_is_unchanged(depth, quantifiers):
    bounds = GenBounds(max_depth=depth, max_quantifiers=quantifiers)
    digest = hashlib.sha256()
    for index in range(1000):
        rng = case_rng(42, "case", index)
        formula = gen_formula(rng, bounds)
        trace = gen_lasso(rng, bounds)
        digest.update(f"{format_formula(formula)} {lasso_to_json(trace)}\n".encode())
    assert digest.hexdigest() == CORPUS_SHA256[depth, quantifiers]
