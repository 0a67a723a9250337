//! FastText: char-n-gram SGNS over hashed subword buckets, trained from
//! scratch (paper model **FT**; DESIGN.md inventory row 5).
//!
//! Mechanics preserved from Bojanowski et al. 2017: a word is represented
//! as the average of its word vector and its hashed n-gram bucket vectors,
//! gradients flow into every component, and — crucially for the paper's
//! Fig. 3 findings — an **out-of-vocabulary word still embeds** through the
//! buckets of its n-grams, so typo'd tokens land near their clean form
//! where GloVe collapses to zero.

use crate::sgns::{decayed_lr, sgns_step, NegTable};
use crate::vocab::Vocab;
use crate::word2vec::SgnsParams;
use crate::{add_into, mean_pool_into, LanguageModel, ModelCode};
use er_core::json::Json;
use er_core::rng::derive;
use er_core::{Embedding, ErError, Result};
use er_text::ngram::{for_each_ngram_bucket, hashed_ngrams};
use er_text::Corpus;
use rand::Rng;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct FastText {
    vocab: Vocab,
    dim: usize,
    nmin: usize,
    nmax: usize,
    buckets: usize,
    /// Per-token vectors, `vocab.len() * dim`.
    word_vecs: Vec<f32>,
    /// Subword bucket vectors, `buckets * dim`.
    bucket_vecs: Vec<f32>,
    /// Derived from the weights above and never serialized: row `id` is
    /// the vector of vocabulary token `id` (its word vector averaged with
    /// its buckets), `vocab.len() * dim`. Rebuilt by `train` and
    /// `from_json`, so in-vocabulary tokens embed by one row copy.
    token_vecs: Vec<f32>,
    init_ns: u64,
}

#[derive(Debug, Clone)]
pub struct FastTextParams {
    pub sgns: SgnsParams,
    pub nmin: usize,
    pub nmax: usize,
    pub buckets: usize,
}

impl FastText {
    pub fn train(corpus: &Corpus, vocab: Vocab, params: &FastTextParams, seed: u64) -> FastText {
        let start = Instant::now();
        let dim = params.sgns.dim;
        let mut rng = derive(seed, "fasttext");

        // Precompute each vocabulary word's bucket ids once.
        let ngram_ids: Vec<Vec<u32>> = (0..vocab.len() as u32)
            .map(|id| hashed_ngrams(vocab.token(id), params.nmin, params.nmax, params.buckets))
            .collect();

        let mut word_vecs: Vec<f32> = (0..vocab.len() * dim)
            .map(|_| (rng.gen_range(0.0f32..1.0) - 0.5) / dim as f32)
            .collect();
        let mut bucket_vecs: Vec<f32> = (0..params.buckets * dim)
            .map(|_| (rng.gen_range(0.0f32..1.0) - 0.5) / dim as f32)
            .collect();
        let mut out_vecs = vec![0.0f32; vocab.len() * dim];
        let table = NegTable::build(vocab.counts());

        let encoded: Vec<Vec<u32>> = corpus.sentences().iter().map(|s| vocab.encode(s)).collect();
        let total_tokens: usize =
            encoded.iter().map(Vec::len).sum::<usize>().max(1) * params.sgns.epochs;
        let mut processed = 0usize;
        let mut h = vec![0.0f32; dim];
        let mut grad_h = vec![0.0f32; dim];

        for _epoch in 0..params.sgns.epochs {
            for sentence in &encoded {
                for (i, &center) in sentence.iter().enumerate() {
                    processed += 1;
                    let lr = decayed_lr(params.sgns.lr, processed as f32 / total_tokens as f32);
                    let span = rng.gen_range(1..=params.sgns.window);
                    let lo = i.saturating_sub(span);
                    let hi = (i + span).min(sentence.len() - 1);

                    let center = center as usize;
                    let grams = &ngram_ids[center];
                    let parts = (1 + grams.len()) as f32;

                    for (j, &ctx) in sentence.iter().enumerate().take(hi + 1).skip(lo) {
                        if j == i {
                            continue;
                        }
                        let context = ctx as usize;

                        // h = average of word vector and subword buckets.
                        h.copy_from_slice(&word_vecs[center * dim..(center + 1) * dim]);
                        for &g in grams {
                            let row = &bucket_vecs[g as usize * dim..(g as usize + 1) * dim];
                            for (hd, bd) in h.iter_mut().zip(row) {
                                *hd += bd;
                            }
                        }
                        for hd in h.iter_mut() {
                            *hd /= parts;
                        }

                        grad_h.fill(0.0);
                        sgns_step(&h, &mut grad_h, &mut out_vecs, context, 1.0, lr);
                        for _ in 0..params.sgns.negatives {
                            let neg = table.sample(&mut rng) as usize;
                            if neg == context {
                                continue;
                            }
                            sgns_step(&h, &mut grad_h, &mut out_vecs, neg, 0.0, lr);
                        }

                        // Distribute the input gradient over all components.
                        let scale = 1.0 / parts;
                        for (wd, g) in word_vecs[center * dim..(center + 1) * dim]
                            .iter_mut()
                            .zip(&grad_h)
                        {
                            *wd += g * scale;
                        }
                        for &gid in grams {
                            let row =
                                &mut bucket_vecs[gid as usize * dim..(gid as usize + 1) * dim];
                            for (bd, g) in row.iter_mut().zip(&grad_h) {
                                *bd += g * scale;
                            }
                        }
                    }
                }
            }
        }

        let mut model = FastText {
            vocab,
            dim,
            nmin: params.nmin,
            nmax: params.nmax,
            buckets: params.buckets,
            word_vecs,
            bucket_vecs,
            token_vecs: Vec::new(),
            init_ns: 0,
        };
        model.build_token_table();
        model.init_ns = start.elapsed().as_nanos() as u64;
        model
    }

    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// A single token's vector: word vector averaged with its subword
    /// buckets when in-vocabulary, subword buckets alone otherwise. Only
    /// tokens with no component at all (empty, or out-of-vocabulary and
    /// too short for any n-gram) have no representation.
    pub fn token_vector(&self, token: &str) -> Option<Embedding> {
        let mut scratch = Vec::new();
        self.token_row(token, &mut scratch)
            .map(|v| Embedding(v.to_vec()))
    }

    /// Fill `token_vecs` from the current weights.
    fn build_token_table(&mut self) {
        let dim = self.dim;
        let mut table = vec![0.0f32; self.vocab.len() * dim];
        for id in 0..self.vocab.len() {
            let token = self.vocab.token(id as u32);
            self.average_components(Some(id as u32), token, &mut table[id * dim..(id + 1) * dim]);
        }
        self.token_vecs = table;
    }

    /// Average the word vector of vocabulary id `id` (if any) with the
    /// bucket vectors of `token`'s n-grams into `out`. Arithmetic order:
    /// start at `+0.0`, add the word row, then each bucket row in n-gram
    /// order, then divide by the part count. False when there is no part
    /// at all (an OOV token too short for any n-gram).
    fn average_components(&self, id: Option<u32>, token: &str, out: &mut [f32]) -> bool {
        let dim = self.dim;
        out.fill(0.0);
        let mut parts = 0.0f32;
        if let Some(id) = id {
            add_into(
                out,
                &self.word_vecs[id as usize * dim..(id as usize + 1) * dim],
            );
            parts += 1.0;
        }
        for_each_ngram_bucket(token, self.nmin, self.nmax, self.buckets, |g| {
            add_into(
                out,
                &self.bucket_vecs[g as usize * dim..(g as usize + 1) * dim],
            );
            parts += 1.0;
        });
        if parts == 0.0 {
            return false;
        }
        for v in out.iter_mut() {
            *v /= parts;
        }
        true
    }

    /// One token's vector: its table row when in-vocabulary, its bucket
    /// average (computed into `scratch`) otherwise. The single FT
    /// embedding path behind both [`FastText::token_vector`] and
    /// `embed_into`.
    fn token_row<'a>(&'a self, token: &str, scratch: &'a mut Vec<f32>) -> Option<&'a [f32]> {
        if token.is_empty() {
            return None;
        }
        if let Some(id) = self.vocab.id(token) {
            let id = id as usize;
            return Some(&self.token_vecs[id * self.dim..(id + 1) * self.dim]);
        }
        scratch.resize(self.dim, 0.0);
        self.average_components(None, token, scratch)
            .then_some(&scratch[..])
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("vocab".into(), self.vocab.to_json()),
            ("dim".into(), Json::from_usize(self.dim)),
            ("nmin".into(), Json::from_usize(self.nmin)),
            ("nmax".into(), Json::from_usize(self.nmax)),
            ("buckets".into(), Json::from_usize(self.buckets)),
            ("word_vectors".into(), Json::from_f32_slice(&self.word_vecs)),
            (
                "bucket_vectors".into(),
                Json::from_f32_slice(&self.bucket_vecs),
            ),
        ])
    }

    pub fn from_json(json: &Json, init_ns: u64) -> Result<FastText> {
        let vocab = Vocab::from_json(json.expect("vocab")?)?;
        let dim = json.expect("dim")?.as_usize()?;
        let nmin = json.expect("nmin")?.as_usize()?;
        let nmax = json.expect("nmax")?.as_usize()?;
        let buckets = json.expect("buckets")?.as_usize()?;
        let word_vecs = json.expect("word_vectors")?.as_f32_vec()?;
        let bucket_vecs = json.expect("bucket_vectors")?.as_f32_vec()?;
        crate::check_matrix_shape("FastText words", &word_vecs, vocab.len(), dim)?;
        crate::check_matrix_shape("FastText buckets", &bucket_vecs, buckets, dim)?;
        if nmin < 1 || nmin > nmax {
            return Err(ErError::Parse(format!("bad n-gram range {nmin}..={nmax}")));
        }
        // Zero buckets would pass the shape check (0 rows) and then panic
        // hashing the first n-gram.
        if buckets == 0 {
            return Err(ErError::Parse("FastText: need at least one bucket".into()));
        }
        let mut model = FastText {
            vocab,
            dim,
            nmin,
            nmax,
            buckets,
            word_vecs,
            bucket_vecs,
            token_vecs: Vec::new(),
            init_ns,
        };
        model.build_token_table();
        Ok(model)
    }

    pub(crate) fn init_ns(&self) -> u64 {
        self.init_ns
    }
}

impl LanguageModel for FastText {
    fn code(&self) -> ModelCode {
        ModelCode::FT
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
        // One OOV scratch row per call, reused across the text's tokens.
        let mut scratch = Vec::new();
        mean_pool_into(text, out, |token, sum| {
            self.token_row(token, &mut scratch)
                .map(|v| add_into(sum, v))
                .is_some()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_params() -> FastTextParams {
        FastTextParams {
            sgns: SgnsParams {
                dim: 16,
                window: 2,
                negatives: 3,
                epochs: 20,
                lr: 0.05,
            },
            nmin: 3,
            nmax: 5,
            buckets: 512,
        }
    }

    fn toy_corpus() -> Corpus {
        let mut c = Corpus::new();
        for _ in 0..30 {
            c.push_text("golden restaurant downtown plaza");
            c.push_text("restaurant golden kitchen plaza");
            c.push_text("digital camera battery charger");
        }
        c
    }

    #[test]
    fn oov_words_still_embed_via_subwords() {
        let corpus = toy_corpus();
        let vocab = Vocab::build(&corpus, 1);
        let model = FastText::train(&corpus, vocab, &toy_params(), 13);
        assert!(model.vocab().id("restaurnat").is_none(), "typo must be OOV");
        let typo = model.embed("restaurnat");
        assert_ne!(typo, Embedding::zeros(16), "subword fallback must fire");
        let clean = model.embed("restaurant");
        assert!(
            clean.cosine(&typo) > 0.5,
            "typo should stay near clean form, got {}",
            clean.cosine(&typo)
        );
    }

    #[test]
    fn json_round_trip_preserves_embeddings() {
        let corpus = toy_corpus();
        let vocab = Vocab::build(&corpus, 1);
        let model = FastText::train(&corpus, vocab, &toy_params(), 13);
        let back = FastText::from_json(&model.to_json(), model.init_ns()).unwrap();
        assert_eq!(model.embed("golden kamera"), back.embed("golden kamera"));
    }

    #[test]
    fn zero_buckets_are_a_parse_error_not_a_panic() {
        let corpus = toy_corpus();
        let vocab = Vocab::build(&corpus, 1);
        let model = FastText::train(&corpus, vocab, &toy_params(), 13);
        let Json::Obj(mut fields) = model.to_json() else {
            panic!("FastText serializes to an object");
        };
        for (key, value) in fields.iter_mut() {
            match key.as_str() {
                "buckets" => *value = Json::from_usize(0),
                "bucket_vectors" => *value = Json::from_f32_slice(&[]),
                _ => {}
            }
        }
        let err = FastText::from_json(&Json::Obj(fields), 0).unwrap_err();
        assert!(matches!(err, ErError::Parse(_)), "{err:?}");
    }
}
