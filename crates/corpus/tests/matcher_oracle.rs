//! Differential oracle for the Fig. 1 matcher.
//!
//! `reference` below is the original per-position string matcher,
//! kept verbatim: `String` tokens, plural-insensitive `tok_eq`, and a
//! greedy first-fit permutation check per window. The library now
//! compiles the term groups into interned token bitmasks; this file
//! checks, on seeded hostile text and on the calibrated corpus, that
//! both give the same counts.

use steelworks_corpus::prelude::*;
use steelworks_netsim::rng::SimRng;

/// The original string matcher, used only as the oracle.
mod reference {
    /// Normalize raw text into matchable tokens.
    ///
    /// Lowercases; keeps alphanumerics, `.` (for "4.0") and `/` (for
    /// "it/ot"); splits hyphens into separate tokens so "data-center"
    /// matches "data center".
    pub fn tokenize(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut cur = String::new();
        for ch in text.chars() {
            let c = ch.to_ascii_lowercase();
            if c.is_ascii_alphanumeric() || c == '.' || c == '/' {
                cur.push(c);
            } else {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
        }
        if !cur.is_empty() {
            tokens.push(cur);
        }
        // Strip trailing periods picked up from sentence ends ("tsn.").
        for t in &mut tokens {
            while t.ends_with('.') {
                t.pop();
            }
        }
        tokens.retain(|t| !t.is_empty());
        tokens
    }

    /// Plural-insensitive token equality ("networks" == "network").
    fn tok_eq(a: &str, b: &str) -> bool {
        if a == b {
            return true;
        }
        let (longer, shorter) = if a.len() > b.len() { (a, b) } else { (b, a) };
        longer.len() == shorter.len() + 1 && longer.ends_with('s') && longer.starts_with(shorter)
    }

    /// A compiled term: its token sequence.
    #[derive(Clone, Debug)]
    pub struct CompiledTerm {
        tokens: Vec<String>,
        /// Fused single-token form ("datacenter" for "data center").
        fused: Option<String>,
    }

    /// Compile a term string ("data center") for matching.
    pub fn compile(term: &str) -> CompiledTerm {
        let tokens = tokenize(term);
        let fused = if tokens.len() > 1 {
            Some(tokens.concat())
        } else {
            None
        };
        CompiledTerm { tokens, fused }
    }

    impl CompiledTerm {
        /// If this term matches at token position `i`, return the number of
        /// tokens consumed (1 for the fused form, n for the spelled form).
        pub fn match_at(&self, tokens: &[String], i: usize) -> Option<usize> {
            let n = self.tokens.len();
            if n == 0 || i >= tokens.len() {
                return None;
            }
            if let Some(f) = &self.fused {
                if tok_eq(&tokens[i], f) {
                    return Some(1);
                }
            }
            if i + n <= tokens.len() && window_is_permutation(&self.tokens, &tokens[i..i + n]) {
                return Some(n);
            }
            None
        }

        /// Count non-overlapping occurrences of this term in a token
        /// stream, including word-order permutations of multi-word terms
        /// and the fused form.
        pub fn count(&self, tokens: &[String]) -> u64 {
            let mut count = 0;
            let mut i = 0;
            while i < tokens.len() {
                if let Some(len) = self.match_at(tokens, i) {
                    count += 1;
                    i += len;
                } else {
                    i += 1;
                }
            }
            count
        }
    }

    /// Count a term *group* over a token stream: at each position, the
    /// longest match of any member term counts exactly once — so a group
    /// like {"datacenter", "data center"} does not double-count the fused
    /// spelling against both members.
    pub fn count_group_tokens(terms: &[CompiledTerm], tokens: &[String]) -> u64 {
        let mut count = 0;
        let mut i = 0;
        while i < tokens.len() {
            let best = terms.iter().filter_map(|t| t.match_at(tokens, i)).max();
            if let Some(len) = best {
                count += 1;
                i += len;
            } else {
                i += 1;
            }
        }
        count
    }

    /// Is `window` a permutation of `pattern` (plural-insensitive)?
    fn window_is_permutation(pattern: &[String], window: &[String]) -> bool {
        if pattern.len() != window.len() {
            return false;
        }
        // Small n: greedy bipartite match suffices (n ≤ 4 in practice).
        let mut used = vec![false; window.len()];
        'outer: for p in pattern {
            for (i, w) in window.iter().enumerate() {
                if !used[i] && tok_eq(p, w) {
                    used[i] = true;
                    continue 'outer;
                }
            }
            return false;
        }
        true
    }

    /// Count a whole term group in a text (each occurrence counted once
    /// even when several member terms match it).
    pub fn count_group(terms: &[&str], text: &str) -> u64 {
        let tokens = tokenize(text);
        let compiled: Vec<CompiledTerm> = terms.iter().map(|t| compile(t)).collect();
        count_group_tokens(&compiled, &tokens)
    }
}

/// Per-group counts of the reference matcher over a set of documents,
/// in `GROUPS` order.
fn reference_analyze(docs: &[String]) -> Vec<u64> {
    let token_streams: Vec<Vec<String>> = docs.iter().map(|d| reference::tokenize(d)).collect();
    GROUPS
        .iter()
        .map(|g| {
            let terms: Vec<_> = g.terms.iter().map(|t| reference::compile(t)).collect();
            token_streams
                .iter()
                .map(|toks| reference::count_group_tokens(&terms, toks))
                .sum()
        })
        .collect()
}

fn library_analyze(docs: &[String]) -> Vec<u64> {
    analyze(docs.iter().map(String::as_str))
        .iter()
        .map(|c| c.measured)
        .collect()
}

/// Words that sit on the matcher's edges: plural chains (`tok_eq` is not
/// transitive: "ss"~"s" and "sss"~"ss" but "sss"≁"s"), fused and
/// half-fused forms, dotted and slashed tokens, and every term word.
const HOSTILE_WORDS: &[&str] = &[
    "s",
    "ss",
    "sss",
    "ssss",
    "a",
    "as",
    "data",
    "datas",
    "center",
    "centers",
    "centerss",
    "datacenter",
    "datacenters",
    "datacenterss",
    "datacente",
    "industrial",
    "industrials",
    "network",
    "networks",
    "networkss",
    "control",
    "informatic",
    "informatics",
    "industry",
    "industrys",
    "4.0",
    "4.0.",
    "5.0",
    "4",
    "0",
    "..x",
    "x/",
    "/",
    "it/ot",
    "ot/it",
    "it/ots",
    "it",
    "ot",
    "internet",
    "internets",
    "of",
    "things",
    "thing",
    "iiot",
    "plc",
    "plcs",
    "pl",
    "virtual",
    "vplc",
    "programmable",
    "logic",
    "controller",
    "cyber",
    "physical",
    "system",
    "systems",
    "opc",
    "ua",
    "uas",
    "opcua",
    "mqtt",
    "vxlan",
    "profinet",
    "ethercat",
    "time",
    "sensitive",
    "networking",
    "timesensitivenetworking",
    "tsn",
    "tsns",
    "ts",
    "tcp",
    "tcps",
    "tc",
    "udp",
    "ipv4",
    "ipv6",
    "ipv4s",
    "cyberphysicalsystem",
    "programmablelogiccontroller",
    "industrialnetwork",
    "we",
    "propose",
    "switch",
    "fabric",
];

/// Separators, including non-ASCII ones (`é`, NBSP) the tokenizer must
/// treat as word breaks, hyphens, and sentence ends.
const SEPARATORS: &[&str] = &[
    " ", " ", " ", ", ", "-", ". ", "\u{e9}", "\u{a0}", "\n", "!", "..", " (", ") ", "\u{7f51}",
];

fn random_case(word: &str, rng: &mut SimRng) -> String {
    match rng.below(4) {
        0 => word.to_ascii_uppercase(),
        1 => {
            let mut c = word.chars();
            match c.next() {
                Some(f) => f.to_ascii_uppercase().to_string() + c.as_str(),
                None => String::new(),
            }
        }
        _ => word.to_string(),
    }
}

/// A term from `GROUPS`, in a random surface form: permuted, pluralized,
/// fused or hyphenated, possibly with a word repeated.
fn term_variant(rng: &mut SimRng) -> String {
    let group = rng.pick(GROUPS);
    let term = *rng.pick(group.terms);
    let mut words: Vec<String> = term.split(' ').map(str::to_string).collect();
    rng.shuffle(&mut words);
    if rng.chance(0.3) {
        let i = rng.below(words.len() as u64) as usize;
        words[i].push('s');
    }
    if rng.chance(0.15) {
        let i = rng.below(words.len() as u64) as usize;
        let w = words[i].clone();
        words.insert(i, w);
    }
    match rng.below(4) {
        0 => words.concat(),
        1 => words.join("-"),
        2 => words.join(", "),
        _ => words.join(" "),
    }
}

fn hostile_text(rng: &mut SimRng, max_pieces: u64) -> String {
    let pieces = rng.below(max_pieces + 1);
    let mut s = String::new();
    for _ in 0..pieces {
        let piece = match rng.below(10) {
            0..=2 => term_variant(rng),
            3 => {
                // Printable ASCII garbage.
                let n = 1 + rng.below(6);
                (0..n)
                    .map(|_| (0x21 + rng.below(0x5e) as u8) as char)
                    .collect()
            }
            _ => rng.pick(HOSTILE_WORDS).to_string(),
        };
        s.push_str(&random_case(&piece, rng));
        s.push_str(rng.pick::<&str>(SEPARATORS));
    }
    s
}

/// A random term set over a tiny alphabet, so that terms share tokens,
/// repeat tokens inside one term, and collide through the plural rule.
fn hostile_terms(rng: &mut SimRng) -> Vec<String> {
    const ALPHABET: &[&str] = &["s", "ss", "sss", "a", "as", "b", "4.0", "x/", "ab", "bs"];
    let n_terms = 1 + rng.below(4);
    (0..n_terms)
        .map(|_| {
            let n_words = 1 + rng.below(4);
            let words: Vec<&str> = (0..n_words).map(|_| *rng.pick(ALPHABET)).collect();
            words.join(if rng.chance(0.2) { "-" } else { " " })
        })
        .collect()
}

fn small_alphabet_text(rng: &mut SimRng) -> String {
    const WORDS: &[&str] = &[
        "s", "ss", "sss", "ssss", "a", "as", "ass", "b", "bs", "4.0", "4.0.", "x/", "ab", "abs",
        "sa", "ssa", "bss", "sss.", "..x",
    ];
    let n = rng.below(40);
    let mut s = String::new();
    for _ in 0..n {
        s.push_str(rng.pick::<&str>(WORDS));
        s.push_str(rng.pick::<&str>(SEPARATORS));
    }
    s
}

#[test]
fn analyze_matches_reference_on_hostile_text() {
    let mut rng = SimRng::seed_from_u64(0xF161);
    for case in 0..500 {
        let n_docs = 1 + rng.below(3) as usize;
        let docs: Vec<String> = (0..n_docs).map(|_| hostile_text(&mut rng, 60)).collect();
        assert_eq!(
            library_analyze(&docs),
            reference_analyze(&docs),
            "case {case}: {docs:?}"
        );
    }
}

#[test]
fn count_group_matches_reference_on_hostile_terms() {
    let mut rng = SimRng::seed_from_u64(0xF162);
    for case in 0..600 {
        let terms = hostile_terms(&mut rng);
        let terms: Vec<&str> = terms.iter().map(String::as_str).collect();
        let text = small_alphabet_text(&mut rng);
        assert_eq!(
            count_group(&terms, &text),
            Ok(reference::count_group(&terms, &text)),
            "case {case}: terms {terms:?} text {text:?}"
        );
        // A single term counted alone agrees with `CompiledTerm::count`.
        let term = terms[0];
        assert_eq!(
            count_group(&[term], &text),
            Ok(reference::compile(term).count(&reference::tokenize(&text))),
            "case {case}: term {term:?} text {text:?}"
        );
    }
}

#[test]
fn count_group_matches_reference_for_every_group_on_hostile_text() {
    let mut rng = SimRng::seed_from_u64(0xF163);
    for case in 0..400 {
        let text = hostile_text(&mut rng, 30);
        for g in GROUPS {
            assert_eq!(
                count_group(g.terms, &text),
                Ok(reference::count_group(g.terms, &text)),
                "case {case} group {}: {text:?}",
                g.label
            );
        }
    }
}

#[test]
fn tokenize_matches_reference() {
    let mut rng = SimRng::seed_from_u64(0xF164);
    for case in 0..400 {
        let text = hostile_text(&mut rng, 30);
        assert_eq!(
            tokenize(&text),
            reference::tokenize(&text),
            "case {case}: {text:?}"
        );
    }
}

#[test]
fn analyze_matches_reference_on_generated_corpus() {
    for seed in 0..5 {
        let docs: Vec<String> = generate(40, seed).into_iter().map(|p| p.text).collect();
        assert_eq!(
            library_analyze(&docs),
            reference_analyze(&docs),
            "seed {seed}"
        );
    }
}

#[test]
fn edge_cases_match_reference() {
    let texts = [
        "s ss sss ssss",
        "sss s",
        "datacenterss datacenters datacenter data-centers centers, data",
        "Industry 4.0. industry 4.0.. 4.0 industry ..x x/ it/ot IT/OT ot/it",
        "data\u{e9}center data\u{a0}center network\u{e9}industrial",
        "network network industrial industrial network",
        "of things internet industrial industrial internet of things",
        "",
        "....",
    ];
    let term_sets: [&[&str]; 5] = [
        &["s s", "ss"],
        &["sss s", "s"],
        &["a a", "a"],
        &["4.0 industry"],
        &["x/ ..x"],
    ];
    for text in texts {
        let docs = vec![text.to_string()];
        assert_eq!(library_analyze(&docs), reference_analyze(&docs), "{text:?}");
        for terms in term_sets {
            assert_eq!(
                count_group(terms, text),
                Ok(reference::count_group(terms, text)),
                "{terms:?} over {text:?}"
            );
        }
    }
}
