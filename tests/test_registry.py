"""The query registry: one ``@query`` record per query carries its DuckDB
oracle or the reason it is rows-only (zeeklog_ray/queries.py)."""

import pathlib
import subprocess
import sys

import pytest

import __ray_entry__ as entry
from zeeklog_ray import queries as Q

REPO = pathlib.Path(__file__).resolve().parent.parent

# The queries without an exact oracle.  A query that moves between the
# oracle and rows-only classes shows up as a diff here.
ROWS_ONLY_NAMES = {
    "ann_lsh_topk", "approx_distinct_users", "docs_bpe_merges",
    "docs_bpe_tokenize", "docs_cdc_dup", "docs_nb_source_clf",
    "docs_prep_screened", "docs_screen_verify", "docs_unigram_logprob",
    "embedding_graph_pagerank", "embedding_kmeans", "embedding_pca_project",
    "event_type_quantiles_sketch", "event_value_quantiles_sketch",
    "ivf_ann_topk", "media_audio_fp", "media_phash", "media_video_hash",
    "minhash_dedup_pairs", "near_dup_components", "semantic_dedup",
    "user_value_decayed",
}


def test_every_query_has_exactly_one_of_oracle_and_reason():
    oracles = set(Q.build_oracle_sql())
    assert not oracles & set(Q.ROWS_ONLY)
    assert oracles | set(Q.ROWS_ONLY) == set(Q.QUERIES)
    assert all(reason.strip() for reason in Q.ROWS_ONLY.values())


def test_every_public_function_is_a_registered_query():
    import inspect

    from zeeklog_ray.ops.mediacodec import HAS_PIL

    public = {name for name, fn in inspect.getmembers(Q, inspect.isfunction)
              if fn.__module__ == Q.__name__ and not name.startswith("_")}
    helpers = {"query", "build_oracle_sql", "ensure_oracle_corpus"}
    if not HAS_PIL:
        helpers.add("media_jpeg_features")
    assert public - set(Q.QUERIES) == helpers


def test_rows_only_set_is_pinned():
    assert set(Q.ROWS_ONLY) - {"media_jpeg_features"} == ROWS_ONLY_NAMES


def test_oracle_sql_keys_are_the_queries_with_an_oracle():
    sql = entry.oracle_sql()
    assert set(sql) == set(Q.QUERIES) - set(Q.ROWS_ONLY)
    assert all(isinstance(s, str) and s for s in sql.values())


def test_query_rejects_a_duplicate_name():
    def docs_by_source(sf_dir):
        return None

    with pytest.raises(ValueError, match="registered twice"):
        Q.query(oracle="SELECT 1")(docs_by_source)
    assert Q.QUERIES["docs_by_source"] is not docs_by_source


@pytest.mark.parametrize(
    "kwargs", [{}, {"oracle": "SELECT 1", "rows_only": "approximate"},
               {"rows_only": " "}],
    ids=["neither", "both", "blank-reason"])
def test_query_takes_exactly_one_of_oracle_and_reason(kwargs):
    with pytest.raises(ValueError):
        Q.query(**kwargs)


def test_jpeg_query_registers_with_its_own_reason():
    # the Pillow branch, run where Pillow is absent too (test_mediacodec.py
    # checks that the query is registered only where Pillow imports)
    code = ("import zeeklog_ray.ops.mediacodec as m; m.HAS_PIL = True; "
            "from zeeklog_ray.queries import ROWS_ONLY; "
            "print(ROWS_ONLY['media_jpeg_features'])")
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO,
                         capture_output=True, text=True, check=True)
    reason = out.stdout.strip()
    assert reason and reason not in (
        Q.ROWS_ONLY[n] for n in ROWS_ONLY_NAMES)
