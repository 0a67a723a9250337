//! The allocation-free n-gram visitor must hash exactly the grams the
//! string path extracts: same buckets, same order, for any word and any
//! n-gram range. `char_ngrams` + `fnv1a` is the oracle — it builds each
//! padded gram as a `String` — while the visitor hashes byte ranges of the
//! padded word, so multi-byte chars and long words are where the two could
//! part ways.

use er_text::ngram::{char_ngrams, fnv1a, for_each_ngram_bucket, hashed_ngrams};
use proptest::prelude::*;
use rand::Rng;

fn oracle(word: &str, nmin: usize, nmax: usize, buckets: usize) -> Vec<u32> {
    char_ngrams(word, nmin, nmax)
        .iter()
        .map(|g| (fnv1a(g.as_bytes()) % buckets as u64) as u32)
        .collect()
}

fn check(word: &str, nmin: usize, nmax: usize, buckets: usize) {
    let expected = oracle(word, nmin, nmax, buckets);
    let mut visited = Vec::new();
    for_each_ngram_bucket(word, nmin, nmax, buckets, |id| visited.push(id));
    assert_eq!(
        visited, expected,
        "visitor diverged on {word:?} n={nmin}..={nmax} buckets={buckets}"
    );
    assert_eq!(hashed_ngrams(word, nmin, nmax, buckets), expected);
}

/// Words of 1- to 4-byte chars (ASCII, Latin, Cyrillic, Arabic, CJK,
/// astral), up to `max_chars` long — far longer than any n-gram range.
struct UnicodeWord {
    max_chars: usize,
}

impl Strategy for UnicodeWord {
    type Value = String;

    fn new_value(&self, runner: &mut TestRunner) -> String {
        const WIDE: [char; 10] = ['é', 'ß', 'ø', 'д', 'ع', '中', 'の', '€', '🦀', '𝄞'];
        let rng = runner.rng();
        let len = rng.gen_range(0..=self.max_chars);
        (0..len)
            .map(|_| match rng.gen_range(0..3u32) {
                0 => rng.gen_range(b'a'..=b'z') as char,
                1 => rng.gen_range(b'0'..=b'9') as char,
                _ => WIDE[rng.gen_range(0..WIDE.len())],
            })
            .collect()
    }
}

proptest! {
    fn visitor_matches_the_string_oracle_on_arbitrary_text(
        word in any_string(24),
        nmin in 1..=6usize,
        span in 0..=4usize,
        buckets in 1..=(u32::MAX as usize),
    ) {
        check(&word, nmin, nmin + span, buckets);
    }

    fn visitor_matches_the_string_oracle_on_long_multibyte_words(
        word in UnicodeWord { max_chars: 400 },
        nmin in 1..=8usize,
        span in 0..=6usize,
        buckets in 1..=(u32::MAX as usize),
    ) {
        check(&word, nmin, nmin + span, buckets);
    }
}

#[test]
fn edge_words_and_ranges_match_the_oracle() {
    let long: String = "ab€🦀".repeat(1_000);
    for word in ["", "a", "é", "🦀", "<>", "a>b<", long.as_str()] {
        for (nmin, nmax) in [(1, 1), (1, 3), (2, 2), (3, 5), (5, 9), (40, 41)] {
            for buckets in [1, 2, 4096, u32::MAX as usize] {
                check(word, nmin, nmax, buckets);
            }
        }
    }
}
