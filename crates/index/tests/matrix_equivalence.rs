//! The zero-copy contract of the columnar refactor: for every backend and
//! metric, an index that *borrows* an [`EmbeddingMatrix`] returns exactly
//! the hits of the legacy index built from the same `Vec<Embedding>` —
//! same ids, bit-identical distances — and the batched matrix query path
//! equals sequential per-slice search.

use er_core::rng::rng;
use er_core::{kernels, Embedding, EmbeddingMatrix};
use er_index::{
    ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, LshConfig, Metric, Neighbor, NnIndex,
};
use rand::Rng;

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Embedding> {
    let mut r = rng(seed);
    (0..n)
        .map(|_| Embedding((0..dim).map(|_| r.gen_range(-1.0..1.0)).collect()))
        .collect()
}

/// Distances must match to the bit, not within an epsilon — the matrix
/// path re-orders no arithmetic.
fn assert_hits_bit_identical(a: &[Vec<Neighbor>], b: &[Vec<Neighbor>]) {
    assert_eq!(a.len(), b.len());
    for (qa, qb) in a.iter().zip(b) {
        assert_eq!(qa.len(), qb.len());
        for (na, nb) in qa.iter().zip(qb) {
            assert_eq!(na.index, nb.index);
            assert_eq!(
                na.distance.to_bits(),
                nb.distance.to_bits(),
                "distance drifted: {} vs {}",
                na.distance,
                nb.distance
            );
        }
    }
}

fn search_all<I: NnIndex>(index: &I, queries: &[Embedding], k: usize) -> Vec<Vec<Neighbor>> {
    queries.iter().map(|q| index.search(q, k)).collect()
}

#[test]
fn exact_matrix_path_equals_legacy_path() {
    let vectors = random_vectors(300, 24, 11);
    let queries = random_vectors(40, 24, 12);
    let matrix = EmbeddingMatrix::from_embeddings(&vectors);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        let legacy = ExactIndex::with_metric(&vectors, metric);
        let zero_copy = ExactIndex::from_matrix(&matrix, metric);
        assert_hits_bit_identical(
            &search_all(&legacy, &queries, 10),
            &search_all(&zero_copy, &queries, 10),
        );
    }
}

#[test]
fn hnsw_matrix_path_equals_legacy_path() {
    let vectors = random_vectors(250, 16, 21);
    let queries = random_vectors(32, 16, 22);
    let matrix = EmbeddingMatrix::from_embeddings(&vectors);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        let config = HnswConfig {
            metric,
            ..HnswConfig::default()
        };
        let legacy = HnswIndex::build(&vectors, config.clone());
        let zero_copy = HnswIndex::from_matrix(&matrix, config);
        assert_eq!(legacy.adjacency(), zero_copy.adjacency(), "graphs drifted");
        assert_hits_bit_identical(
            &search_all(&legacy, &queries, 10),
            &search_all(&zero_copy, &queries, 10),
        );
    }
}

#[test]
fn lsh_matrix_path_equals_legacy_path() {
    let vectors = random_vectors(250, 16, 31);
    let queries = random_vectors(32, 16, 32);
    let matrix = EmbeddingMatrix::from_embeddings(&vectors);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        let config = LshConfig {
            metric,
            ..LshConfig::default()
        };
        let legacy = HyperplaneLsh::build(&vectors, config.clone());
        let zero_copy = HyperplaneLsh::from_matrix(&matrix, config);
        assert_eq!(legacy.signatures(), zero_copy.signatures());
        assert_hits_bit_identical(
            &search_all(&legacy, &queries, 10),
            &search_all(&zero_copy, &queries, 10),
        );
    }
}

#[test]
fn batched_matrix_queries_equal_sequential_slice_search() {
    let vectors = random_vectors(300, 16, 41);
    let queries = random_vectors(64, 16, 42);
    let query_matrix = EmbeddingMatrix::from_embeddings(&queries);
    let index = HnswIndex::build(
        &vectors,
        HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        },
    );
    let sequential: Vec<_> = (0..query_matrix.len())
        .map(|i| index.search_slice(query_matrix.row(i), 10))
        .collect();
    assert_eq!(index.search_batch_rows(&query_matrix, 10), sequential);
    // And per-`Embedding` searches agree with the matrix batch.
    let per_embedding: Vec<_> = queries.iter().map(|q| index.search(q, 10)).collect();
    assert_hits_bit_identical(&per_embedding, &sequential);
}

/// The tuple-era oracle: a verbatim brute-force scan returning the bare
/// `(usize, f32)` hits searches used to emit before [`Neighbor`].
fn tuple_era_scan(
    vectors: &[Embedding],
    query: &Embedding,
    metric: Metric,
    k: usize,
) -> Vec<(usize, f32)> {
    let mut hits: Vec<(usize, f32)> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let dist = match metric {
                Metric::Euclidean => kernels::squared_euclidean(query.as_slice(), v.as_slice()),
                Metric::Cosine => 1.0 - kernels::cosine(query.as_slice(), v.as_slice()),
            };
            (i, dist)
        })
        .collect();
    hits.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    hits.truncate(k);
    hits
}

/// The `Neighbor` redesign must not perturb a single bit: every hit's
/// `(index, distance)` equals the tuple the old API returned.
#[test]
fn neighbor_hits_are_bit_identical_to_the_tuple_era() {
    let vectors = random_vectors(200, 24, 51);
    let queries = random_vectors(25, 24, 52);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        let index = ExactIndex::with_metric(&vectors, metric);
        for q in &queries {
            let hits = index.search(q, 10);
            let oracle = tuple_era_scan(&vectors, q, metric, 10);
            assert_eq!(hits.len(), oracle.len());
            for (n, (idx, dist)) in hits.iter().zip(&oracle) {
                assert_eq!(n.index, *idx, "{metric:?}");
                assert_eq!(
                    n.distance.to_bits(),
                    dist.to_bits(),
                    "{metric:?}: distance drifted from the tuple era"
                );
            }
        }
    }
}
