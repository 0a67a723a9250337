//! Character n-gram extraction with the hashing trick (FastText's subword
//! machinery, Bojanowski et al. 2017). Words are padded with `<`/`>` so
//! prefixes and suffixes hash differently from word-internal grams.

/// FNV-1a 64-bit — the workspace's stable, dependency-free hash. Used for
/// n-gram bucketing and cache keys; must never change across releases or
/// saved models would silently re-bucket.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a hash over more bytes, so a byte string can be hashed
/// piecewise: `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// All padded char n-grams of `word` with n in `[nmin, nmax]`.
///
/// The whole padded word is excluded when it coincides with a plain n-gram
/// range — FastText stores it separately as the word itself.
pub fn char_ngrams(word: &str, nmin: usize, nmax: usize) -> Vec<String> {
    assert!(nmin >= 1 && nmin <= nmax, "bad n-gram range");
    let padded: Vec<char> = std::iter::once('<')
        .chain(word.chars())
        .chain(std::iter::once('>'))
        .collect();
    let mut grams = Vec::new();
    for n in nmin..=nmax {
        if padded.len() < n {
            break;
        }
        for start in 0..=(padded.len() - n) {
            grams.push(padded[start..start + n].iter().collect());
        }
    }
    grams
}

/// Hashed bucket ids of the word's n-grams (`bucket = fnv1a(gram) % buckets`).
pub fn hashed_ngrams(word: &str, nmin: usize, nmax: usize, buckets: usize) -> Vec<u32> {
    let mut ids = Vec::new();
    for_each_ngram_bucket(word, nmin, nmax, buckets, |id| ids.push(id));
    ids
}

/// Visit the bucket id of every padded n-gram of `word`, in the order of
/// [`char_ngrams`], without allocating: each gram is hashed straight from
/// a byte range of the virtual padded word `<word>`, cut at char
/// boundaries. The hot path of FastText's out-of-vocabulary embedding.
pub fn for_each_ngram_bucket(
    word: &str,
    nmin: usize,
    nmax: usize,
    buckets: usize,
    mut f: impl FnMut(u32),
) {
    assert!(nmin >= 1 && nmin <= nmax, "bad n-gram range");
    assert!(buckets > 0, "need at least one bucket");
    let bytes = word.as_bytes();
    let len = bytes.len();
    // Byte offsets of the padded word's char boundaries: `<` at 0, the
    // word's chars shifted by one, `>` at len + 1, the end at len + 2.
    let bounds = || {
        std::iter::once(0)
            .chain(word.char_indices().map(|(at, _)| at + 1))
            .chain([len + 1, len + 2])
    };
    for n in nmin..=nmax {
        // `zip` stops at the last window, so words shorter than `n`
        // padded chars yield nothing — like `char_ngrams`.
        for (start, end) in bounds().zip(bounds().skip(n)) {
            let mut h = FNV_OFFSET;
            if start == 0 {
                h = fnv1a_extend(h, b"<");
            }
            h = fnv1a_extend(h, &bytes[start.max(1) - 1..end.min(len + 1) - 1]);
            if end == len + 2 {
                h = fnv1a_extend(h, b">");
            }
            f((h % buckets as u64) as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_padded_ngrams() {
        let grams = char_ngrams("cat", 3, 4);
        assert_eq!(grams, vec!["<ca", "cat", "at>", "<cat", "cat>"]);
    }

    #[test]
    fn short_words_still_produce_grams() {
        assert_eq!(char_ngrams("a", 3, 5), vec!["<a>"]);
        assert!(!char_ngrams("é", 3, 5).is_empty());
    }

    #[test]
    fn hashing_is_stable() {
        // Golden values: changing fnv1a would re-bucket every saved model.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"<ca"), fnv1a(b"<ca"));
        assert_ne!(fnv1a(b"<ca"), fnv1a(b"ca>"));
    }

    #[test]
    fn visitor_hashes_the_same_grams_as_the_string_path() {
        for (word, nmin, nmax) in [("cat", 3, 4), ("a", 1, 6), ("", 1, 3), ("é日🦀x", 2, 5)] {
            let expected: Vec<u32> = char_ngrams(word, nmin, nmax)
                .iter()
                .map(|g| (fnv1a(g.as_bytes()) % 97) as u32)
                .collect();
            assert_eq!(hashed_ngrams(word, nmin, nmax, 97), expected, "{word:?}");
        }
    }

    #[test]
    fn buckets_are_in_range() {
        for id in hashed_ngrams("reproduction", 3, 5, 64) {
            assert!(id < 64);
        }
    }

    #[test]
    fn typod_word_shares_most_ngrams() {
        // The mechanical property behind FastText's typo robustness (Fig. 3).
        let a: std::collections::BTreeSet<_> =
            char_ngrams("restaurant", 3, 5).into_iter().collect();
        let b: std::collections::BTreeSet<_> =
            char_ngrams("restaurnat", 3, 5).into_iter().collect();
        let shared = a.intersection(&b).count();
        assert!(
            shared * 2 > a.len(),
            "typo kept fewer than half the n-grams"
        );
    }
}
