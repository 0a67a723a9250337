//! er-embed — the language-model zoo (DESIGN.md inventory rows 3–9).
//!
//! The three **static** models are implemented from scratch — Word2Vec
//! (SGNS), GloVe (co-occurrence + AdaGrad) and FastText (char-n-gram SGNS
//! over hashed buckets) — alongside the first **dynamic** model: a
//! from-scratch [`Transformer`] encoder pre-trained with a genuine
//! masked-language-model objective ([`mlm::pretrain_bt`]) over the
//! `er-tensor` autograd engine, registered as paper model **BT**. All are
//! unified behind the [`LanguageModel`] trait and pre-trained
//! deterministically by [`ModelZoo::pretrain`]. The remaining transformer
//! variants (AT/RA/DT/XT) and the SBERT family (ST/S5/SA/SM) land in later
//! PRs; their [`ModelCode`]s are already defined so the benchmark suite
//! can enumerate the full roster.

pub mod fasttext;
pub mod glove;
pub mod mlm;
mod sgns;
pub mod transformer;
pub mod vocab;
pub mod word2vec;
pub mod zoo;

pub use fasttext::{FastText, FastTextParams};
pub use glove::{Glove, GloveParams};
pub use mlm::MlmParams;
pub use transformer::{Transformer, TransformerConfig};
pub use vocab::Vocab;
pub use word2vec::{SgnsParams, Word2Vec};
pub use zoo::{AnyModel, ModelZoo, ZooConfig};

use er_core::{Embedding, ErError, Result};
use er_text::{normalize, tokens_of};
use std::time::Duration;

/// The 12 language models of the paper's Table 3, by two-letter code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelCode {
    /// Word2Vec (static).
    WC,
    /// GloVe (static).
    GE,
    /// FastText (static).
    FT,
    /// BERT (transformer, MLM pre-trained — the first dynamic model).
    BT,
    /// AlBERT (transformer, later PR).
    AT,
    /// RoBERTa (transformer, later PR).
    RA,
    /// DistilBERT (transformer, later PR).
    DT,
    /// XLNet (transformer, later PR).
    XT,
    /// S-MPNet (SentenceBERT, later PR).
    ST,
    /// S-GTR-T5 (SentenceBERT, later PR).
    S5,
    /// S-DistilRoBERTa (SentenceBERT, later PR).
    SA,
    /// S-MiniLM (SentenceBERT, later PR).
    SM,
}

impl ModelCode {
    pub const ALL: [ModelCode; 12] = [
        ModelCode::WC,
        ModelCode::GE,
        ModelCode::FT,
        ModelCode::BT,
        ModelCode::AT,
        ModelCode::RA,
        ModelCode::DT,
        ModelCode::XT,
        ModelCode::ST,
        ModelCode::S5,
        ModelCode::SA,
        ModelCode::SM,
    ];

    /// The static subset implemented by this crate.
    pub const STATIC: [ModelCode; 3] = [ModelCode::WC, ModelCode::GE, ModelCode::FT];

    /// The dynamic (transformer) subset implemented so far.
    pub const DYNAMIC: [ModelCode; 1] = [ModelCode::BT];

    pub fn as_str(&self) -> &'static str {
        match self {
            ModelCode::WC => "WC",
            ModelCode::GE => "GE",
            ModelCode::FT => "FT",
            ModelCode::BT => "BT",
            ModelCode::AT => "AT",
            ModelCode::RA => "RA",
            ModelCode::DT => "DT",
            ModelCode::XT => "XT",
            ModelCode::ST => "ST",
            ModelCode::S5 => "S5",
            ModelCode::SA => "SA",
            ModelCode::SM => "SM",
        }
    }

    pub fn full_name(&self) -> &'static str {
        match self {
            ModelCode::WC => "Word2Vec",
            ModelCode::GE => "GloVe",
            ModelCode::FT => "FastText",
            ModelCode::BT => "BERT",
            ModelCode::AT => "AlBERT",
            ModelCode::RA => "RoBERTa",
            ModelCode::DT => "DistilBERT",
            ModelCode::XT => "XLNet",
            ModelCode::ST => "S-MPNet",
            ModelCode::S5 => "S-GTR-T5",
            ModelCode::SA => "S-DistilRoBERTa",
            ModelCode::SM => "S-MiniLM",
        }
    }

    pub fn parse(s: &str) -> Result<ModelCode> {
        ModelCode::ALL
            .iter()
            .copied()
            .find(|c| c.as_str() == s)
            .ok_or_else(|| ErError::Parse(format!("unknown model code {s:?}")))
    }
}

impl std::fmt::Display for ModelCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Uniform interface over every model in the zoo: a model turns text into a
/// fixed-dimension [`Embedding`], and reports how long it took to initialize
/// (the paper's Table 4 init-vs-transform split).
pub trait LanguageModel: Send + Sync {
    fn code(&self) -> ModelCode;
    fn dim(&self) -> usize;
    fn init_time(&self) -> Duration;
    fn embed(&self, text: &str) -> Embedding;

    /// Embed `text` directly into a caller-provided row of length
    /// [`LanguageModel::dim`] — the hook the columnar
    /// `er_core::EmbeddingMatrix` pipeline fills rows through without an
    /// intermediate allocation per entity. The default delegates to
    /// [`LanguageModel::embed`]; models that can write in place may
    /// override it.
    fn embed_into(&self, text: &str, out: &mut [f32]) {
        let e = self.embed(text);
        debug_assert_eq!(e.dim(), out.len(), "embed_into row/dim mismatch");
        out.copy_from_slice(e.as_slice());
    }
}

/// Mean-pool the token vectors of `text` into `out` — the one pooling path
/// of the static models. `add_token` adds one token's vector into the
/// running sum and reports whether the token has a vector; tokens without
/// one are skipped, and text with none (all tokens OOV, or empty text)
/// pools to the zero vector.
///
/// Arithmetic order, which every static model's embeddings are pinned to:
/// the sum starts at `+0.0`, tokens are added in text order, and the sum
/// is multiplied by `1 / n`.
pub(crate) fn mean_pool_into(
    text: &str,
    out: &mut [f32],
    mut add_token: impl FnMut(&str, &mut [f32]) -> bool,
) {
    out.fill(0.0);
    let normalized = normalize(text);
    let mut n = 0usize;
    for token in tokens_of(&normalized) {
        if add_token(token, out) {
            n += 1;
        }
    }
    if n > 0 {
        let inv = 1.0 / n as f32;
        for s in out.iter_mut() {
            *s *= inv;
        }
    }
}

/// `sum += v`, element-wise.
pub(crate) fn add_into(sum: &mut [f32], v: &[f32]) {
    debug_assert_eq!(sum.len(), v.len());
    for (s, x) in sum.iter_mut().zip(v) {
        *s += x;
    }
}

/// Validate a flat row-major matrix loaded from JSON against its declared
/// shape, so corrupt caches fail loudly instead of panicking on slicing.
pub(crate) fn check_matrix_shape(name: &str, data: &[f32], rows: usize, dim: usize) -> Result<()> {
    if dim == 0 || data.len() != rows * dim {
        return Err(ErError::Parse(format!(
            "{name}: expected {rows}x{dim} = {} weights, got {}",
            rows * dim,
            data.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_codes_round_trip_through_display() {
        for code in ModelCode::ALL {
            assert_eq!(ModelCode::parse(&code.to_string()).unwrap(), code);
        }
        assert!(ModelCode::parse("ZZ").is_err());
    }

    #[test]
    fn mean_pool_averages_and_handles_empty() {
        let vector = |token: &str| match token {
            "a" => Some([1.0f32, 2.0]),
            "b" => Some([3.0f32, 6.0]),
            _ => None,
        };
        let pool = |text: &str| {
            let mut out = [f32::NAN; 2];
            mean_pool_into(text, &mut out, |token, sum| {
                vector(token).map(|v| add_into(sum, &v)).is_some()
            });
            out
        };
        assert_eq!(pool("A, b zzz"), [2.0, 4.0]);
        assert_eq!(pool("zzz qqq"), [0.0, 0.0]);
        assert_eq!(pool(""), [0.0, 0.0]);
    }

    #[test]
    fn matrix_shape_check_rejects_mismatch() {
        assert!(check_matrix_shape("t", &[0.0; 6], 2, 3).is_ok());
        assert!(check_matrix_shape("t", &[0.0; 5], 2, 3).is_err());
        assert!(check_matrix_shape("t", &[], 2, 0).is_err());
    }
}
