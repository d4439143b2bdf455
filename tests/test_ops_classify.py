import numpy as np
import pandas as pd
import ray.data

from zeeklog_ray.ops.wordhash import split_word_hashes as swh


def _corpus(n_per=60, seed=3):
    rng = np.random.default_rng(seed)
    va = ["apple", "pear", "plum", "grape", "fig"]
    vb = ["bolt", "nut", "gear", "cam", "rod"]
    rows = []
    for i in range(n_per):
        rows.append(("fruit", " ".join(rng.choice(va, 8))))
        rows.append(("tool", " ".join(rng.choice(vb, 8))))
    return pd.DataFrame(rows, columns=["label", "text"])


def _nb_reference(train_df: pd.DataFrame, test_texts: "pd.Series",
                  text_col: str = "text", label_col: str = "label",
                  n_features: int = 1 << 18, alpha: int = 1) -> np.ndarray:
    """Pure-Python/naive-numpy reference for ops/classify: same hashed
    features, same smoothing, same tie-break; per-document Python loop —
    correct by inspection."""
    labels = np.sort(train_df[label_col].unique())
    fc = np.zeros((len(labels), n_features), dtype=np.int64)
    cd = np.zeros(len(labels), dtype=np.int64)
    for i, lab in enumerate(labels):
        sub = train_df[train_df[label_col] == lab]
        cd[i] = len(sub)
        for t in sub[text_col]:
            _, wh = swh(pd.Series([t]))
            for f in (wh % np.uint64(n_features)).astype(np.int64):
                fc[i, f] += 1
    lp = np.log(cd) - np.log(cd.sum())
    ll = (np.log(fc + alpha)
          - np.log(fc.sum(axis=1) + alpha * n_features)[:, None])
    out = []
    for t in test_texts:
        _, wh = swh(pd.Series([t]))
        feats = (wh % np.uint64(n_features)).astype(np.int64)
        s = lp + ll[:, feats].sum(axis=1)
        out.append(labels[int(np.argmax(s))])
    return np.array(out, dtype=object)


def test_nb_counts_exact_and_separable_accuracy():
    from zeeklog_ray.ops.classify import nb_predict, train_nb

    df = _corpus()
    model = train_nb(ray.data.from_pandas(df).repartition(4),
                     label_col="label", n_features=1 << 12)
    # trained counts are exact integers, invariant to batching
    model1 = train_nb(ray.data.from_pandas(df),  # single block
                      label_col="label", n_features=1 << 12)
    assert np.array_equal(model["feat_counts"], model1["feat_counts"])
    assert np.array_equal(model["class_docs"], model1["class_docs"])
    # disjoint vocabularies: held-out accuracy must be 1.0
    test = _corpus(n_per=30, seed=9)
    out = nb_predict(ray.data.from_pandas(test).repartition(3), model) \
        .to_pandas()
    assert (out["pred"] == out["label"]).all()


def test_nb_parity_with_reference_and_empty_doc():
    from zeeklog_ray.ops.classify import nb_predict, train_nb

    train = _corpus(n_per=25, seed=5)
    # skew the prior so the empty-doc tie-break is observable
    train = pd.concat([train, train[train["label"] == "tool"].head(15)],
                      ignore_index=True)
    test_texts = pd.Series([
        "apple gear", "bolt bolt plum", "", "fig fig cam rod",
        "unseenword anotherunseen"])
    model = train_nb(ray.data.from_pandas(train).repartition(3),
                     label_col="label", n_features=1 << 12)
    got = nb_predict(
        ray.data.from_pandas(pd.DataFrame({"text": test_texts})), model) \
        .to_pandas()["pred"].to_numpy(dtype=object)
    exp = _nb_reference(train, test_texts, n_features=1 << 12)
    assert list(got) == list(exp)
    # empty doc → prior argmax → majority class 'tool'
    assert got[2] == "tool"
