//! The static models' pooling fast path must reproduce the per-token
//! reference bit for bit.
//!
//! The oracle is rebuilt from the serialized weights (`to_json`), so it
//! shares no code with the models: FastText token vectors come from
//! `char_ngrams` + `fnv1a` over the raw word and bucket matrices, and
//! sentences mean-pool `tokenize`d tokens the way the per-token path did
//! (sum from `+0.0` in token order, then multiply by `1/n`).

use er_core::json::Json;
use er_embed::{
    FastText, FastTextParams, Glove, GloveParams, LanguageModel, SgnsParams, Vocab, Word2Vec,
};
use er_text::corpus::{inject_typo, synthetic_corpus};
use er_text::ngram::{char_ngrams, fnv1a};
use er_text::{tokenize, Corpus};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

struct Fixture {
    corpus: Corpus,
    vocab: Vocab,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = synthetic_corpus(24, &mut StdRng::seed_from_u64(5));
        let vocab = Vocab::build(&corpus, 2);
        Fixture { corpus, vocab }
    })
}

fn sgns(dim: usize) -> SgnsParams {
    SgnsParams {
        dim,
        window: 3,
        negatives: 3,
        epochs: 1,
        lr: 0.05,
    }
}

fn fasttext_with(nmin: usize, nmax: usize) -> FastText {
    let f = fixture();
    let params = FastTextParams {
        sgns: sgns(24),
        nmin,
        nmax,
        buckets: 1024,
    };
    FastText::train(&f.corpus, f.vocab.clone(), &params, 11)
}

fn fasttext() -> &'static FastText {
    static MODEL: OnceLock<FastText> = OnceLock::new();
    MODEL.get_or_init(|| fasttext_with(3, 5))
}

fn fasttext_oracle() -> &'static FastTextOracle {
    static ORACLE: OnceLock<FastTextOracle> = OnceLock::new();
    ORACLE.get_or_init(|| FastTextOracle::of(fasttext()))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The per-token reference pooling: `tokenize`, skip tokens without a
/// vector, sum in order from `+0.0`, multiply by `1/n`.
fn oracle_pool(text: &str, dim: usize, token: impl Fn(&str) -> Option<Vec<f32>>) -> Vec<f32> {
    let mut sum = vec![0.0f32; dim];
    let mut n = 0usize;
    for v in tokenize(text).iter().filter_map(|t| token(t)) {
        for (s, x) in sum.iter_mut().zip(&v) {
            *s += x;
        }
        n += 1;
    }
    if n > 0 {
        let inv = 1.0 / n as f32;
        for s in sum.iter_mut() {
            *s *= inv;
        }
    }
    sum
}

/// FastText's reference token vector, from its serialized weights.
struct FastTextOracle {
    vocab: Vocab,
    dim: usize,
    nmin: usize,
    nmax: usize,
    buckets: usize,
    words: Vec<f32>,
    grams: Vec<f32>,
}

impl FastTextOracle {
    fn of(model: &FastText) -> FastTextOracle {
        let json = model.to_json();
        let field = |key: &str| json.expect(key).unwrap();
        FastTextOracle {
            vocab: Vocab::from_json(field("vocab")).unwrap(),
            dim: field("dim").as_usize().unwrap(),
            nmin: field("nmin").as_usize().unwrap(),
            nmax: field("nmax").as_usize().unwrap(),
            buckets: field("buckets").as_usize().unwrap(),
            words: field("word_vectors").as_f32_vec().unwrap(),
            grams: field("bucket_vectors").as_f32_vec().unwrap(),
        }
    }

    fn token_vector(&self, token: &str) -> Option<Vec<f32>> {
        if token.is_empty() {
            return None;
        }
        let dim = self.dim;
        let mut v = vec![0.0f32; dim];
        let mut parts = 0.0f32;
        if let Some(id) = self.vocab.id(token) {
            let row = &self.words[id as usize * dim..(id as usize + 1) * dim];
            for (vd, wd) in v.iter_mut().zip(row) {
                *vd += wd;
            }
            parts += 1.0;
        }
        for gram in char_ngrams(token, self.nmin, self.nmax) {
            let g = (fnv1a(gram.as_bytes()) % self.buckets as u64) as usize;
            for (vd, bd) in v.iter_mut().zip(&self.grams[g * dim..(g + 1) * dim]) {
                *vd += bd;
            }
            parts += 1.0;
        }
        if parts == 0.0 {
            return None;
        }
        for vd in v.iter_mut() {
            *vd /= parts;
        }
        Some(v)
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        oracle_pool(text, self.dim, |t| self.token_vector(t))
    }
}

fn assert_fast_path_matches(model: &FastText, oracle: &FastTextOracle, text: &str) {
    let expected = bits(&oracle.embed(text));
    let mut row = vec![f32::NAN; model.dim()];
    model.embed_into(text, &mut row);
    assert_eq!(bits(&row), expected, "FT embed_into diverged on {text:?}");
    assert_eq!(
        bits(model.embed(text).as_slice()),
        expected,
        "FT embed diverged on {text:?}"
    );
}

/// Text built from vocabulary tokens, typo'd vocabulary tokens (OOV but
/// sharing most n-grams), random OOV words and punctuation, so both the
/// table-row and the bucket-sum branch run, in every interleaving.
fn mixed_text(seed: u64, vocab: &Vocab) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let words = rng.gen_range(0..12usize);
    let mut text = String::new();
    for _ in 0..words {
        let token = vocab.token(rng.gen_range(0..vocab.len() as u32));
        let word = match rng.gen_range(0..4u32) {
            0 => token.to_uppercase(),
            1 => inject_typo(token, &mut rng),
            2 => ["x", "zq", "ü", "🦀🦀", "q7"][rng.gen_range(0..5usize)].to_string(),
            _ => token.to_string(),
        };
        text.push_str(&word);
        text.push_str([" ", ", ", "-", "  (", ") "][rng.gen_range(0..5usize)]);
    }
    text
}

proptest! {
    fn fasttext_embed_into_matches_the_per_token_oracle(text in any_string(64)) {
        assert_fast_path_matches(fasttext(), fasttext_oracle(), &text);
    }

    fn fasttext_matches_the_oracle_on_vocab_and_typo_text(seed in 0..u64::MAX) {
        let model = fasttext();
        let text = mixed_text(seed, model.vocab());
        assert_fast_path_matches(model, fasttext_oracle(), &text);
    }
}

#[test]
fn fasttext_token_vectors_match_the_oracle_in_and_out_of_vocabulary() {
    let (model, oracle) = (fasttext(), fasttext_oracle());
    let vocab = model.vocab();
    let mut tokens: Vec<String> = (0..vocab.len() as u32)
        .map(|id| vocab.token(id).to_string())
        .collect();
    tokens.extend(["", "x", "é", "🦀", "restaurnat", "zzzzzzzzzzzz"].map(String::from));
    for token in &tokens {
        let got = model.token_vector(token).map(|e| bits(e.as_slice()));
        let expected = oracle.token_vector(token).map(|v| bits(&v));
        assert_eq!(got, expected, "token_vector diverged on {token:?}");
    }
}

#[test]
fn oov_tokens_too_short_for_any_gram_are_skipped() {
    // With 4..=6-grams, a one-char OOV token pads to 3 chars and has no
    // gram at all, so it must drop out of the pool (not count as zero).
    let model = fasttext_with(4, 6);
    let oracle = FastTextOracle::of(&model);
    assert!(model.token_vector("q").is_none());
    let token = model.vocab().token(0).to_string();
    for text in ["q", "q q", &format!("q {token} q"), &format!("{token} é")] {
        assert_fast_path_matches(&model, &oracle, text);
    }
}

#[test]
fn degenerate_text_pools_to_positive_zero() {
    let model = fasttext();
    for text in ["", "   ", ".,;:!?", "\t\n"] {
        let mut row = vec![f32::NAN; model.dim()];
        model.embed_into(text, &mut row);
        assert!(row.iter().all(|x| x.to_bits() == 0), "{text:?}: {row:?}");
    }
}

#[test]
fn json_round_trip_keeps_bytes_and_embedding_bits() {
    let model = fasttext();
    let json = model.to_json().to_string();
    let back = FastText::from_json(&Json::parse(&json).unwrap(), 0).unwrap();
    assert_eq!(
        back.to_json().to_string(),
        json,
        "the token table leaked into to_json"
    );
    for seed in 0..64 {
        let text = mixed_text(seed, model.vocab());
        assert_eq!(
            bits(back.embed(&text).as_slice()),
            bits(model.embed(&text).as_slice()),
            "{text:?}"
        );
    }
}

#[test]
fn word2vec_and_glove_pool_like_the_per_token_oracle() {
    let f = fixture();
    let w2v = Word2Vec::train(&f.corpus, f.vocab.clone(), &sgns(24), 3);
    let glove = Glove::train(
        &f.corpus,
        f.vocab.clone(),
        &GloveParams {
            dim: 24,
            window: 3,
            epochs: 2,
            lr: 0.05,
            x_max: 16.0,
            alpha: 0.75,
        },
        3,
    );
    let mut texts: Vec<String> = (0..64).map(|seed| mixed_text(seed, &f.vocab)).collect();
    texts.extend(["", "!!!", "zzz qqq"].map(String::from));
    for text in &texts {
        let cases: [(&dyn LanguageModel, Vec<f32>); 2] = [
            (
                &w2v,
                oracle_pool(text, 24, |t| w2v.token_vector(t).map(<[f32]>::to_vec)),
            ),
            (
                &glove,
                oracle_pool(text, 24, |t| glove.token_vector(t).map(<[f32]>::to_vec)),
            ),
        ];
        for (model, expected) in cases {
            let mut row = vec![f32::NAN; 24];
            model.embed_into(text, &mut row);
            assert_eq!(bits(&row), bits(&expected), "{} on {text:?}", model.code());
            assert_eq!(bits(model.embed(text).as_slice()), bits(&expected));
        }
    }
}
