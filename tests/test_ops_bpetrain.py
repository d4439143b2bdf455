"""BPE trainer: both tiers vs a pure-Python reference with the same
determinism contract (sorted-char initial codes, min-packed-key
tie-break, END_WORD marker code 0)."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from zeeklog_ray import relational
from zeeklog_ray.ops.bpetrain import (
    END_WORD,
    _apply_merge,
    _pair_census,
    train_bpe,
)


def reference_bpe(texts, n_merges, min_pair_count=2, return_state=False):
    """Slow reference: dict-of-tuples BPE with the module's contract."""
    from collections import Counter

    wc = Counter(w for t in texts for w in t.split(" ") if w)
    alphabet = sorted(set("".join(wc)))
    code = {END_WORD: 0, **{c: i + 1 for i, c in enumerate(alphabet)}}
    sym = {v: k for k, v in code.items()}
    words = {w: tuple(code[c] for c in w) + (0,) for w in wc}
    merges = []
    next_code = len(alphabet) + 1
    for _ in range(n_merges):
        pairs = Counter()
        for w, syms in words.items():
            n = wc[w]
            for i in range(len(syms) - 1):
                pairs[(syms[i], syms[i + 1])] += n
        if not pairs:
            break
        best = min(pairs.items(),
                   key=lambda kv: (-kv[1], kv[0][0] * 2**32 + kv[0][1]))
        (a, b), cnt = best
        if cnt < min_pair_count:
            break
        merges.append((sym[a], sym[b], cnt))
        sym[next_code] = sym[a] + sym[b]
        for w, syms in list(words.items()):
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(next_code)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[w] = tuple(out)
        next_code += 1
    if return_state:
        return merges, words
    return merges


TEXTS = [
    "low lower lowest low low",
    "new newer newest new",
    "wider wide wide wide",
    "low new wide lowest",
]


@pytest.mark.parametrize("heap_tier", [1_000_000, 0], indirect=True)
def test_train_bpe_matches_reference(ray_session, heap_tier):
    ds = ray.data.from_pandas(pd.DataFrame({"text": TEXTS})).repartition(3)
    got = train_bpe(ds, n_merges=12)
    exp = reference_bpe(TEXTS, 12)
    assert got["merges"] == exp
    assert got["n_distinct_words"] == len(
        {w for t in TEXTS for w in t.split(" ") if w})
    # learned symbols contain the merged strings
    learned = set(got["symbols"].values())
    for left, right, _ in exp:
        assert left + right in learned


def test_select_merge_batch_rules():
    """The exactness rules of the batched distributed tier: disjoint
    pairs above the new-pair bound batch together; symbol overlap or a
    count at/below the bound STOPS the batch; a==b self-closes;
    min_pair_count and max_n are honored."""
    from zeeklog_ray.ops.bpetrain import _PACK, _select_merge_batch

    def pk(a, b):
        return a * int(_PACK) + b

    census = pd.Series({pk(1, 2): 100, pk(3, 4): 90,
                        pk(5, 6): 80, pk(2, 7): 50})
    # after (1,2): U = count(2,7) = 50 < 90, 80 → all three batch
    assert _select_merge_batch(census, 10, 2) == \
        [(1, 2, 100), (3, 4, 90), (5, 6, 80)]
    assert _select_merge_batch(census, 2, 2) == [(1, 2, 100), (3, 4, 90)]
    # symbol overlap + U stop: (2,3) shares 2 and sits at U
    census2 = pd.Series({pk(1, 2): 100, pk(2, 3): 90, pk(4, 5): 80})
    assert _select_merge_batch(census2, 10, 2) == [(1, 2, 100)]
    # a==b: (Z,Z) pairs can mint at near its own count → batch closes
    census3 = pd.Series({pk(1, 1): 100, pk(3, 4): 99})
    assert _select_merge_batch(census3, 10, 2) == [(1, 1, 100)]
    # min_pair_count gate
    assert _select_merge_batch(pd.Series({pk(1, 2): 1}), 10, 2) == []
    assert _select_merge_batch(pd.Series(dtype=np.int64), 10, 2) == []


def test_train_bpe_batched_64_merges_parity(ray_session, monkeypatch):
    """64 merges on a natural-statistics corpus: the batched distributed
    tier must produce the BIT-IDENTICAL merge list to the driver tier
    and the pure-Python reference (VERDICT r3 item 6)."""
    rng = np.random.default_rng(7)
    sylls = np.array(["lo", "wer", "new", "est", "wi", "de", "ta", "ri",
                      "on", "ma", "su", "ke", "shon", "ing", "pre", "er"])
    words = ["".join(rng.choice(sylls, size=rng.integers(1, 4)))
             for _ in range(400)]
    texts = []
    for i, w in enumerate(words):
        # Zipf-ish multiplicity so pair counts have natural spread
        texts.extend([w] * max(1, 120 // (i + 1)))
    lines = [" ".join(texts[i:i + 10]) for i in range(0, len(texts), 10)]
    ds = ray.data.from_pandas(pd.DataFrame({"text": lines})).repartition(4)
    drv = train_bpe(ds, n_merges=64)
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)
    dist = train_bpe(ds, n_merges=64)
    exp = reference_bpe(lines, 64)
    assert drv["merges"] == exp
    assert dist["merges"] == exp
    assert len(exp) == 64


def test_apply_merge_overlap_runs():
    """aaa with merge (a,a): greedy left-to-right keeps the first pair
    only — run-parity resolution."""
    # word: a a a </w>  (codes a=1, marker=0)
    seq = np.array([1, 1, 1, 0], dtype=np.int64)
    offs = np.array([0, 4], dtype=np.int64)
    out, oo = _apply_merge(seq, offs, 1, 1, 7)
    assert out.tolist() == [7, 1, 0]
    assert oo.tolist() == [0, 3]
    # a a a a -> two merges
    seq = np.array([1, 1, 1, 1, 0], dtype=np.int64)
    offs = np.array([0, 5], dtype=np.int64)
    out, oo = _apply_merge(seq, offs, 1, 1, 7)
    assert out.tolist() == [7, 7, 0]


def test_pair_census_word_boundaries():
    """Pairs never cross word boundaries."""
    # words: [1,2,0] [2,1,0]
    seq = np.array([1, 2, 0, 2, 1, 0], dtype=np.int64)
    offs = np.array([0, 3, 6], dtype=np.int64)
    w = np.array([5, 3], dtype=np.int64)
    cs = _pair_census(seq, offs, w)
    pk = lambda a, b: a * 2**32 + b
    assert cs.loc[pk(1, 2)] == 5
    assert cs.loc[pk(2, 0)] == 5
    assert cs.loc[pk(2, 1)] == 3
    assert cs.loc[pk(1, 0)] == 3
    assert pk(0, 2) not in cs.index      # boundary pair absent


def test_tokenize_with_merges_monotone(ray_session):
    """Token counts under the learned tokenizer are non-increasing in
    the number of merges and exactly match a hand check at 0 merges."""
    from zeeklog_ray.ops.bpetrain import tokenize_with_merges

    ds = ray.data.from_pandas(pd.DataFrame({
        "doc_id": range(len(TEXTS)), "text": TEXTS})).repartition(2)
    prev = None
    for k in (0, 4, 12):
        fit = train_bpe(ds, n_merges=k)
        out = tokenize_with_merges(ds, fit).to_pandas()
        total = int(out["n_bpe_tok"].sum())
        if k == 0:   # char tokens = total characters of all words
            exp = sum(len(w) for t in TEXTS for w in t.split(" ") if w)
            assert total == exp
        if prev is not None:
            assert total <= prev
        prev = total


def test_tokenize_sentinel_collision_and_unknown_chars(ray_session):
    """Regressions: a learned merge whose STRING equals the '</w>'
    sentinel must not confuse apply (merges travel as code pairs), and
    apply-time input with unknown chars / null text must not crash."""
    from zeeklog_ray.ops.bpetrain import tokenize_with_merges

    texts = ["d</w>d d</w>d d</w>d m</w>m m</w>m m</w>m"] * 3 + ["xy"] * 40
    ds = ray.data.from_pandas(pd.DataFrame({
        "doc_id": range(len(texts)), "text": texts})).repartition(2)
    fit = train_bpe(ds, n_merges=8)
    # reference tokenization on the driver tier's own kernels: apply
    # must reproduce EXACTLY what training would have produced
    exp, word_syms = reference_bpe(texts, 8, return_state=True)
    assert fit["merges"] == exp
    out = tokenize_with_merges(ds, fit).to_pandas()
    # expected counts from the REFERENCE's tracked word states (codes
    # threaded through the merge loop, immune to the sentinel-string
    # ambiguity this test guards against)
    def count(t):
        return sum(sum(1 for s in word_syms[w] if s != 0)
                   for w in t.split(" ") if w)
    exp_counts = {t: count(t) for t in set(texts)}
    got = dict(zip(out["doc_id"], out["n_bpe_tok"]))
    for i, t in enumerate(texts):
        assert got[i] == exp_counts[t], (i, t, got[i], exp_counts[t])

    # unknown chars + null text at apply time
    novel = ray.data.from_pandas(pd.DataFrame({
        "doc_id": [0, 1, 2], "text": ["xyZ!", None, ""]}))
    o2 = tokenize_with_merges(novel, fit).to_pandas() \
        .set_index("doc_id")["n_bpe_tok"]
    assert o2.loc[0] >= 2      # Z and ! are UNK tokens, never merged
    assert o2.loc[1] == 0 and o2.loc[2] == 0


def test_train_bpe_distributed_spill_parity(ray_session, tmp_path,
                                            monkeypatch):
    """The Parquet spill seam for the per-round code-table pin must be
    bit-identical to the object-store pin (same merges, same counts)."""
    ds = ray.data.from_pandas(pd.DataFrame({"text": TEXTS})).repartition(3)
    monkeypatch.setattr(relational, "HEAP_BUDGET_BYTES", 0)
    pinned = train_bpe(ds, n_merges=12)
    spilled = train_bpe(ds, n_merges=12,
                        spill_dir=str(tmp_path / "bpe_spill"))
    assert spilled["merges"] == pinned["merges"]
    assert spilled["n_rounds"] == pinned["n_rounds"]
