//! Tokenization and permutation-aware term matching.
//!
//! Fig. 1's caption says "occurrences (with permutations)": a term like
//! "industrial network" must also count "networks, industrial",
//! "Industrial Networks", "data-center" vs "data center" vs
//! "datacenter", etc. The matcher therefore works on a normalized token
//! stream and matches every word-order permutation of a term's tokens,
//! with plural-insensitive token comparison and hyphen/space fusion.
//!
//! A `Matcher` compiles its term groups once. Every distinct pattern
//! token and fused form gets one bit of a `u64`, and an accept table
//! maps each surface string that matches a pattern token to the mask of
//! those tokens. A pattern token `p` accepts `p`, `p + "s"`, and `p`
//! without its final `s` when it has one. This relation is not
//! transitive ("ss" accepts "s" and "sss", but "sss" does not accept
//! "s"), so it is spelled out per pattern token rather than computed by
//! stemming. A document becomes one mask per token, and matching is bit
//! tests on those masks.

use std::collections::BTreeMap;
use std::fmt;

/// Distinct pattern tokens and fused forms one `Matcher` can intern:
/// the width of a token mask.
pub const MASK_BITS: usize = 64;

/// Most tokens one term may have: the width of the permutation check's
/// "used" word.
pub const MAX_TERM_TOKENS: usize = 32;

/// Why a term set could not be compiled into a `Matcher`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The terms hold more distinct tokens and fused forms than
    /// [`MASK_BITS`].
    TooManyTokens {
        /// Distinct tokens and fused forms the terms hold.
        distinct: usize,
    },
    /// One term has more tokens than [`MAX_TERM_TOKENS`].
    TermTooLong {
        /// The offending term.
        term: String,
        /// Its token count.
        tokens: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooManyTokens { distinct } => write!(
                f,
                "term set has {distinct} distinct tokens and fused forms, more than {MASK_BITS}"
            ),
            CompileError::TermTooLong { term, tokens } => write!(
                f,
                "term {term:?} has {tokens} tokens, more than {MAX_TERM_TOKENS}"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Call `emit` with each token of `text` as [`tokenize`] defines them,
/// built in the reused buffer `cur`.
fn for_each_token(text: &str, cur: &mut Vec<u8>, mut emit: impl FnMut(&[u8])) {
    let mut flush = |cur: &mut Vec<u8>| {
        let end = cur.iter().rposition(|&b| b != b'.').map_or(0, |i| i + 1);
        if end > 0 {
            emit(&cur[..end]);
        }
        cur.clear();
    };
    for &b in text.as_bytes() {
        let c = b.to_ascii_lowercase();
        if c.is_ascii_alphanumeric() || c == b'.' || c == b'/' {
            cur.push(c);
        } else if !cur.is_empty() {
            flush(cur);
        }
    }
    if !cur.is_empty() {
        flush(cur);
    }
}

/// Normalize raw text into matchable tokens.
///
/// Lowercases ASCII; keeps alphanumerics, `.` (for "4.0") and `/` (for
/// "it/ot"); every other byte, non-ASCII ones included, separates
/// tokens, so "data-center" matches "data center". Trailing periods
/// picked up from sentence ends ("tsn.") are stripped, and a token left
/// empty is dropped.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, &mut Vec::new(), |t| {
        tokens.push(t.iter().map(|&b| char::from(b)).collect())
    });
    tokens
}

/// Index of `token` in `interned`, appending it if new.
fn intern(interned: &mut Vec<Vec<u8>>, token: Vec<u8>) -> usize {
    match interned.iter().position(|t| *t == token) {
        Some(i) => i,
        None => {
            interned.push(token);
            interned.len() - 1
        }
    }
}

/// One term: a mask bit per token, and the fused form's bit (0 for a
/// single-token term, which has no fused form).
#[derive(Clone, Debug)]
struct Term {
    tokens: Vec<u64>,
    fused: u64,
}

impl Term {
    /// Tokens consumed by a match at position `i`: 1 for the fused
    /// form, which is tried first, else the term's length if the
    /// window starting at `i` is a permutation of the term.
    fn match_at(&self, masks: &[u64], i: usize) -> Option<usize> {
        if masks[i] & self.fused != 0 {
            return Some(1);
        }
        let window = masks.get(i..i + self.tokens.len())?;
        is_permutation(&self.tokens, window).then_some(self.tokens.len())
    }
}

/// Is `window` a permutation of `pattern`? Greedy first-fit: each
/// pattern token, in order, takes the first unused window token that
/// accepts it.
fn is_permutation(pattern: &[u64], window: &[u64]) -> bool {
    let mut used = 0u32;
    'pattern: for &bit in pattern {
        for (j, &mask) in window.iter().enumerate() {
            if used & (1 << j) == 0 && mask & bit != 0 {
                used |= 1 << j;
                continue 'pattern;
            }
        }
        return false;
    }
    true
}

/// One term group, with the union of its terms' bits: a position whose
/// mask misses all of them cannot start a match.
#[derive(Clone, Debug)]
struct Group {
    terms: Vec<Term>,
    any: u64,
}

impl Group {
    /// Count the group over a document's token masks: at each
    /// position the longest match of any member term counts once, and
    /// matches do not overlap — so a group like {"datacenter", "data
    /// center"} does not double-count the fused spelling.
    fn count(&self, masks: &[u64]) -> u64 {
        let mut count = 0;
        let mut i = 0;
        while i < masks.len() {
            if masks[i] & self.any == 0 {
                i += 1;
                continue;
            }
            match self.terms.iter().filter_map(|t| t.match_at(masks, i)).max() {
                Some(len) => {
                    count += 1;
                    i += len;
                }
                None => i += 1,
            }
        }
        count
    }
}

/// FNV-1a over a token's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Open-addressed table from each accepted surface string to the mask
/// of the pattern tokens that accept it. It is at most a quarter full,
/// so a token no pattern accepts (most of a document) usually costs one
/// hash and one empty slot.
#[derive(Clone, Debug)]
struct AcceptTable {
    /// Power-of-two length, linear probing.
    slots: Vec<Option<(Vec<u8>, u64)>>,
}

impl AcceptTable {
    fn new(accept: BTreeMap<Vec<u8>, u64>) -> AcceptTable {
        let mut slots = vec![None; (4 * accept.len()).next_power_of_two()];
        let wrap = slots.len() - 1;
        for (form, mask) in accept {
            let mut s = fnv1a(&form) as usize & wrap;
            while slots[s].is_some() {
                s = (s + 1) & wrap;
            }
            slots[s] = Some((form, mask));
        }
        AcceptTable { slots }
    }

    /// The mask of the pattern tokens that accept `token`.
    fn get(&self, token: &[u8]) -> u64 {
        let wrap = self.slots.len() - 1;
        let mut s = fnv1a(token) as usize & wrap;
        while let Some((form, mask)) = &self.slots[s] {
            if form == token {
                return *mask;
            }
            s = (s + 1) & wrap;
        }
        0
    }
}

/// Term groups compiled for counting.
#[derive(Clone, Debug)]
pub(crate) struct Matcher {
    accept: AcceptTable,
    groups: Vec<Group>,
}

impl Matcher {
    /// Compile term groups; each term is a space-separated word
    /// sequence ("data center"), normalized like document text.
    pub(crate) fn new(groups: &[&[&str]]) -> Result<Matcher, CompileError> {
        // Intern every token and fused form; a term is its tokens'
        // indices plus its fused form's index when it has one.
        let mut interned: Vec<Vec<u8>> = Vec::new();
        let mut cur = Vec::new();
        let mut compiled: Vec<Vec<(Vec<usize>, Option<usize>)>> = Vec::with_capacity(groups.len());
        for terms in groups {
            let mut group = Vec::with_capacity(terms.len());
            for term in *terms {
                let mut tokens: Vec<Vec<u8>> = Vec::new();
                for_each_token(term, &mut cur, |t| tokens.push(t.to_vec()));
                if tokens.len() > MAX_TERM_TOKENS {
                    return Err(CompileError::TermTooLong {
                        term: term.to_string(),
                        tokens: tokens.len(),
                    });
                }
                if tokens.is_empty() {
                    continue;
                }
                let fused = (tokens.len() > 1).then(|| intern(&mut interned, tokens.concat()));
                let spelled = tokens
                    .into_iter()
                    .map(|t| intern(&mut interned, t))
                    .collect();
                group.push((spelled, fused));
            }
            compiled.push(group);
        }
        if interned.len() > MASK_BITS {
            return Err(CompileError::TooManyTokens {
                distinct: interned.len(),
            });
        }

        let mut accept: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (i, p) in interned.iter().enumerate() {
            let mut plural = p.clone();
            plural.push(b's');
            let mut forms = vec![p.clone(), plural];
            if p.len() > 1 && p.ends_with(b"s") {
                forms.push(p[..p.len() - 1].to_vec());
            }
            for form in forms {
                *accept.entry(form).or_insert(0) |= 1 << i;
            }
        }

        let groups = compiled
            .into_iter()
            .map(|terms| {
                let terms: Vec<Term> = terms
                    .into_iter()
                    .map(|(spelled, fused)| Term {
                        tokens: spelled.into_iter().map(|i| 1 << i).collect(),
                        fused: fused.map_or(0, |i| 1 << i),
                    })
                    .collect();
                let any = terms
                    .iter()
                    .flat_map(|t| t.tokens.iter().chain([&t.fused]))
                    .fold(0, |acc, b| acc | b);
                Group { terms, any }
            })
            .collect();
        Ok(Matcher {
            accept: AcceptTable::new(accept),
            groups,
        })
    }

    /// Count every group over a sequence of documents; one total per
    /// group, in the order the groups were compiled.
    pub(crate) fn count_docs<'a, I: IntoIterator<Item = &'a str>>(&self, docs: I) -> Vec<u64> {
        let mut counts = vec![0u64; self.groups.len()];
        let mut cur = Vec::new();
        let mut masks = Vec::new();
        for doc in docs {
            masks.clear();
            for_each_token(doc, &mut cur, |t| masks.push(self.accept.get(t)));
            for (group, count) in self.groups.iter().zip(&mut counts) {
                *count += group.count(&masks);
            }
        }
        counts
    }
}

/// Count a whole term group in a text (each occurrence counted once
/// even when several member terms match it).
pub fn count_group(terms: &[&str], text: &str) -> Result<u64, CompileError> {
    Ok(Matcher::new(&[terms])?.count_docs([text])[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(term: &str, text: &str) -> u64 {
        count_group(&[term], text).unwrap()
    }

    #[test]
    fn tokenize_basic() {
        assert_eq!(
            tokenize("Data-Center networks, and IT/OT!"),
            vec!["data", "center", "networks", "and", "it/ot"]
        );
        assert_eq!(tokenize("Industry 4.0."), vec!["industry", "4.0"]);
        assert_eq!(
            tokenize("data\u{e9}center .. x."),
            vec!["data", "center", "x"]
        );
    }

    #[test]
    fn exact_match_counts() {
        assert_eq!(
            count(
                "industrial network",
                "An industrial network is an industrial network."
            ),
            2
        );
    }

    #[test]
    fn plural_matches() {
        assert_eq!(
            count("industrial network", "industrial networks everywhere"),
            1
        );
    }

    #[test]
    fn plural_rule_is_not_transitive() {
        assert_eq!(count("ss", "s sss ssss"), 2);
        assert_eq!(count("s", "sss"), 0);
    }

    #[test]
    fn permutation_matches() {
        assert_eq!(
            count("industrial network", "the network, industrial by nature"),
            1
        );
    }

    #[test]
    fn fused_and_spaced_and_hyphenated() {
        assert_eq!(
            count(
                "data center",
                "datacenter, data center, data-center, datacenters"
            ),
            4
        );
    }

    #[test]
    fn no_overlapping_matches() {
        assert_eq!(count("a a", "a a a"), 1);
    }

    #[test]
    fn near_miss_does_not_match() {
        assert_eq!(
            count("industrial network", "industrial processes use networks"),
            0
        );
        assert_eq!(count("industrial network", "the industrious network"), 0);
    }

    #[test]
    fn slash_terms() {
        assert_eq!(count("it/ot", "IT/OT convergence"), 1);
        assert_eq!(count("it/ot", "it ot convergence"), 0);
    }

    #[test]
    fn group_counting() {
        let n = count_group(
            &["tcp", "udp"],
            "TCP over UDP beats UDP over TCP, says TCP.",
        );
        assert_eq!(n, Ok(5));
    }

    #[test]
    fn industry_40() {
        assert_eq!(count("industry 4.0", "Industry 4.0 and industry 4.0!"), 2);
        assert_eq!(count("industry 4.0", "industry 5.0"), 0);
    }

    #[test]
    fn empty_term_never_matches() {
        assert_eq!(count("", "a b c"), 0);
        assert_eq!(count("--", "a b c"), 0);
    }

    #[test]
    fn too_many_tokens_is_an_error() {
        let words: Vec<String> = (0..MASK_BITS + 1).map(|i| format!("w{i}")).collect();
        let terms: Vec<&str> = words.iter().map(String::as_str).collect();
        assert_eq!(
            count_group(&terms, "w0 w64"),
            Err(CompileError::TooManyTokens {
                distinct: MASK_BITS + 1
            })
        );
        assert_eq!(count_group(&terms[..MASK_BITS], "w0 w63 w64"), Ok(2));
        // Two-word terms intern their fused form as well.
        let pairs: Vec<String> = (0..22).map(|i| format!("p{i} q{i}")).collect();
        let pairs: Vec<&str> = pairs.iter().map(String::as_str).collect();
        assert_eq!(
            count_group(&pairs, ""),
            Err(CompileError::TooManyTokens { distinct: 66 })
        );
    }

    #[test]
    fn too_long_term_is_an_error() {
        let long = vec!["a"; MAX_TERM_TOKENS + 1].join(" ");
        assert!(matches!(
            count_group(&[&long], &long),
            Err(CompileError::TermTooLong { tokens, .. }) if tokens == MAX_TERM_TOKENS + 1
        ));
        let longest = vec!["a"; MAX_TERM_TOKENS].join(" ");
        assert_eq!(count_group(&[&longest], &long), Ok(1));
    }
}
