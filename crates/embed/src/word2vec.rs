//! Word2Vec: skip-gram with negative sampling, trained from scratch
//! (paper model **WC**; DESIGN.md inventory row 3).
//!
//! Mechanics preserved from word2vec.c: dynamic window shrinking, the
//! unigram^0.75 negative table, linear learning-rate decay, uniform
//! ±0.5/dim input init with zero-initialized output vectors. Sentence
//! embeddings are mean-pooled token vectors; OOV tokens are skipped and
//! all-OOV sentences embed to the zero vector.

use crate::sgns::{decayed_lr, sgns_step, NegTable};
use crate::vocab::Vocab;
use crate::{add_into, mean_pool_into, LanguageModel, ModelCode};
use er_core::json::Json;
use er_core::rng::derive;
use er_core::{Embedding, Result};
use er_text::Corpus;
use rand::Rng;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Word2Vec {
    vocab: Vocab,
    dim: usize,
    /// Input vectors, `vocab.len() * dim`, row-major — the released weights.
    vectors: Vec<f32>,
    init_ns: u64,
}

/// SGNS hyper-parameters (shared with FastText).
#[derive(Debug, Clone)]
pub struct SgnsParams {
    pub dim: usize,
    pub window: usize,
    pub negatives: usize,
    pub epochs: usize,
    pub lr: f32,
}

impl Word2Vec {
    pub fn train(corpus: &Corpus, vocab: Vocab, params: &SgnsParams, seed: u64) -> Word2Vec {
        let start = Instant::now();
        let dim = params.dim;
        let mut rng = derive(seed, "word2vec");

        let mut in_vecs: Vec<f32> = (0..vocab.len() * dim)
            .map(|_| (rng.gen_range(0.0f32..1.0) - 0.5) / dim as f32)
            .collect();
        let mut out_vecs = vec![0.0f32; vocab.len() * dim];
        let table = NegTable::build(vocab.counts());

        let encoded: Vec<Vec<u32>> = corpus.sentences().iter().map(|s| vocab.encode(s)).collect();
        let total_tokens: usize =
            encoded.iter().map(Vec::len).sum::<usize>().max(1) * params.epochs;
        let mut processed = 0usize;
        let mut grad_h = vec![0.0f32; dim];
        let mut h_buf = vec![0.0f32; dim];

        for _epoch in 0..params.epochs {
            for sentence in &encoded {
                for (i, &center) in sentence.iter().enumerate() {
                    processed += 1;
                    let lr = decayed_lr(params.lr, processed as f32 / total_tokens as f32);
                    let span = rng.gen_range(1..=params.window);
                    let lo = i.saturating_sub(span);
                    let hi = (i + span).min(sentence.len() - 1);
                    for (j, &ctx) in sentence.iter().enumerate().take(hi + 1).skip(lo) {
                        if j == i {
                            continue;
                        }
                        let context = ctx as usize;
                        let h_row = center as usize * dim..(center as usize + 1) * dim;
                        grad_h.fill(0.0);
                        h_buf.copy_from_slice(&in_vecs[h_row.clone()]);
                        sgns_step(&h_buf, &mut grad_h, &mut out_vecs, context, 1.0, lr);
                        for _ in 0..params.negatives {
                            let neg = table.sample(&mut rng) as usize;
                            if neg == context {
                                continue;
                            }
                            sgns_step(&h_buf, &mut grad_h, &mut out_vecs, neg, 0.0, lr);
                        }
                        for (w, g) in in_vecs[h_row].iter_mut().zip(&grad_h) {
                            *w += g;
                        }
                    }
                }
            }
        }

        Word2Vec {
            vocab,
            dim,
            vectors: in_vecs,
            init_ns: start.elapsed().as_nanos() as u64,
        }
    }

    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    pub fn token_vector(&self, token: &str) -> Option<&[f32]> {
        self.vocab
            .id(token)
            .map(|id| &self.vectors[id as usize * self.dim..(id as usize + 1) * self.dim])
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("vocab".into(), self.vocab.to_json()),
            ("dim".into(), Json::from_usize(self.dim)),
            ("vectors".into(), Json::from_f32_slice(&self.vectors)),
        ])
    }

    pub fn from_json(json: &Json, init_ns: u64) -> Result<Word2Vec> {
        let vocab = Vocab::from_json(json.expect("vocab")?)?;
        let dim = json.expect("dim")?.as_usize()?;
        let vectors = json.expect("vectors")?.as_f32_vec()?;
        crate::check_matrix_shape("Word2Vec", &vectors, vocab.len(), dim)?;
        Ok(Word2Vec {
            vocab,
            dim,
            vectors,
            init_ns,
        })
    }

    pub(crate) fn init_ns(&self) -> u64 {
        self.init_ns
    }
}

impl LanguageModel for Word2Vec {
    fn code(&self) -> ModelCode {
        ModelCode::WC
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn init_time(&self) -> Duration {
        Duration::from_nanos(self.init_ns)
    }

    fn embed(&self, text: &str) -> Embedding {
        let mut e = Embedding::zeros(self.dim);
        self.embed_into(text, &mut e.0);
        e
    }

    fn embed_into(&self, text: &str, out: &mut [f32]) {
        mean_pool_into(text, out, |token, sum| {
            self.token_vector(token).map(|v| add_into(sum, v)).is_some()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_params() -> SgnsParams {
        SgnsParams {
            dim: 16,
            window: 3,
            negatives: 3,
            epochs: 30,
            lr: 0.05,
        }
    }

    /// Crafted corpus: "alpha" and "beta" always co-occur, "gamma" lives in
    /// disjoint contexts — SGNS must place alpha nearer beta than gamma.
    fn toy_corpus() -> Corpus {
        let mut c = Corpus::new();
        for _ in 0..40 {
            c.push_text("alpha beta prize winner");
            c.push_text("beta alpha prize ceremony");
            c.push_text("gamma delta ocean current");
            c.push_text("delta gamma ocean tide");
        }
        c
    }

    #[test]
    fn cooccurring_words_end_up_closer() {
        let corpus = toy_corpus();
        let vocab = Vocab::build(&corpus, 1);
        let model = Word2Vec::train(&corpus, vocab, &toy_params(), 7);
        let alpha = model.embed("alpha");
        let beta = model.embed("beta");
        let gamma = model.embed("gamma");
        assert!(
            alpha.cosine(&beta) > alpha.cosine(&gamma) + 0.1,
            "cos(alpha,beta)={} cos(alpha,gamma)={}",
            alpha.cosine(&beta),
            alpha.cosine(&gamma)
        );
    }

    #[test]
    fn oov_sentences_embed_to_zeros() {
        let corpus = toy_corpus();
        let vocab = Vocab::build(&corpus, 1);
        let model = Word2Vec::train(&corpus, vocab, &toy_params(), 7);
        assert_eq!(model.embed("zzz qqq"), Embedding::zeros(16));
        assert_eq!(model.embed(""), Embedding::zeros(16));
    }

    #[test]
    fn json_round_trip_preserves_embeddings() {
        let corpus = toy_corpus();
        let vocab = Vocab::build(&corpus, 1);
        let model = Word2Vec::train(&corpus, vocab, &toy_params(), 7);
        let back = Word2Vec::from_json(&model.to_json(), model.init_ns()).unwrap();
        let a = model.embed("alpha beta ocean");
        let b = back.embed("alpha beta ocean");
        assert_eq!(a, b);
    }
}
