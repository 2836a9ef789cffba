//! Pins the synthetic corpus text byte for byte.
//!
//! `results/fig1.txt` prints only the calibrated per-group counts, which
//! every correct generator reproduces, so a change to the generated text
//! itself would not show there. These digests were captured from the
//! original `String`-per-word generator.

use steelworks_corpus::prelude::generate;

/// FNV-1a-64 over every paper's title and text, each followed by a
/// `0xFF` byte (which never occurs in UTF-8) so that paper boundaries
/// are part of the digest.
fn corpus_digest(n_papers: usize, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for paper in generate(n_papers, seed) {
        for part in [paper.title.as_bytes(), paper.text.as_bytes()] {
            for &b in part.iter().chain([0xFFu8].iter()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn fig1_corpus_text_is_pinned() {
    // `specs/fig1.json`: 160 papers, seed 0x57EE1.
    assert_eq!(corpus_digest(160, 0x57EE1), 0x32f8_088f_7426_f6c2);
}

#[test]
fn small_corpus_text_is_pinned() {
    assert_eq!(corpus_digest(8, 3), 0xb6d9_5446_57df_e4fe);
}
