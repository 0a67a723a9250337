//! The index determinism contract, mirroring `zoo_determinism.rs`: the
//! same seed builds the bit-identical structure across independent builds,
//! different seeds diverge, and the parallel batch path returns exactly
//! the sequential results.

use er_core::rng::rng;
use er_core::{Embedding, EmbeddingMatrix};
use er_index::{HnswConfig, HnswIndex, HyperplaneLsh, LshConfig, NnIndex};
use rand::Rng;

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Embedding> {
    let mut r = rng(seed);
    (0..n)
        .map(|_| Embedding((0..dim).map(|_| r.gen_range(-1.0..1.0)).collect()))
        .collect()
}

#[test]
fn same_seed_builds_bit_identical_hnsw_graphs() {
    let vectors = random_vectors(300, 12, 21);
    let a = HnswIndex::build(&vectors, HnswConfig::default());
    let b = HnswIndex::build(&vectors, HnswConfig::default());
    assert_eq!(a.adjacency(), b.adjacency());
    assert_eq!(a.max_level(), b.max_level());
    for q in random_vectors(10, 12, 22) {
        assert_eq!(a.search(&q, 10), b.search(&q, 10));
    }
}

#[test]
fn different_seeds_build_different_hnsw_graphs() {
    let vectors = random_vectors(300, 12, 23);
    let a = HnswIndex::build(&vectors, HnswConfig::default());
    let b = HnswIndex::build(
        &vectors,
        HnswConfig {
            seed: 43,
            ..HnswConfig::default()
        },
    );
    assert_ne!(
        a.adjacency(),
        b.adjacency(),
        "level sampling must depend on the seed"
    );
}

#[test]
fn same_seed_builds_bit_identical_lsh_signatures() {
    let vectors = random_vectors(200, 12, 24);
    let a = HyperplaneLsh::build(&vectors, LshConfig::default());
    let b = HyperplaneLsh::build(&vectors, LshConfig::default());
    assert_eq!(a.signatures(), b.signatures());
    for q in random_vectors(10, 12, 25) {
        assert_eq!(a.candidates(&q), b.candidates(&q));
        assert_eq!(a.search(&q, 5), b.search(&q, 5));
    }

    let c = HyperplaneLsh::build(
        &vectors,
        LshConfig {
            seed: 7,
            ..LshConfig::default()
        },
    );
    assert_ne!(a.signatures(), c.signatures());
}

#[test]
fn search_batch_matches_sequential_search() {
    let vectors = random_vectors(400, 12, 26);
    let queries = random_vectors(67, 12, 27);
    let query_rows = EmbeddingMatrix::from_embeddings(&queries);
    let hnsw = HnswIndex::build(&vectors, HnswConfig::default());
    let lsh = HyperplaneLsh::build(&vectors, LshConfig::default());
    let exact = er_index::ExactIndex::build(&vectors);

    let sequential: Vec<_> = queries.iter().map(|q| hnsw.search(q, 10)).collect();
    assert_eq!(hnsw.search_batch_rows(&query_rows, 10), sequential);

    let sequential: Vec<_> = queries.iter().map(|q| lsh.search(q, 10)).collect();
    assert_eq!(lsh.search_batch_rows(&query_rows, 10), sequential);

    let sequential: Vec<_> = queries.iter().map(|q| exact.search(q, 10)).collect();
    assert_eq!(exact.search_batch_rows(&query_rows, 10), sequential);

    // Degenerate batch shapes.
    assert!(exact
        .search_batch_rows(&EmbeddingMatrix::new(12), 10)
        .is_empty());
    let one = EmbeddingMatrix::from_embeddings(&queries[..1]);
    assert_eq!(exact.search_batch_rows(&one, 10).len(), 1);
}
