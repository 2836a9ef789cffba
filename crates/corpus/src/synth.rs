//! Synthetic proceedings corpus, calibrated to Fig. 1.
//!
//! The real corpus (SIGCOMM'22/23 + HotNets'22/23 full texts) is
//! copyrighted, so the reproduction generates a synthetic corpus whose
//! term-group frequencies match the published counts: filler prose from
//! a networking vocabulary, with each group's terms injected the
//! published number of times using randomized surface forms (case,
//! plural, permutation, hyphenation) — precisely the variation the
//! matcher must see through. The analyzer then runs unchanged on either
//! corpus.

use crate::terms::{compiled_groups, GROUPS};
use steelworks_netsim::rng::SimRng;

/// One synthetic paper.
#[derive(Clone, Debug)]
pub struct SynthPaper {
    /// Title-ish identifier.
    pub title: String,
    /// Full text.
    pub text: String,
}

/// Filler vocabulary — deliberately free of every term-group word so
/// injected occurrences are the only matches.
const FILLER: &[&str] = &[
    "we",
    "propose",
    "novel",
    "system",
    "achieves",
    "throughput",
    "latency",
    "evaluation",
    "shows",
    "improvement",
    "over",
    "state",
    "of",
    "the",
    "art",
    "design",
    "implement",
    "kernel",
    "bypass",
    "congestion",
    "scheme",
    "flows",
    "packets",
    "measurement",
    "deployment",
    "scale",
    "hardware",
    "offload",
    "switch",
    "topology",
    "routing",
    "traffic",
    "workload",
    "bandwidth",
    "buffer",
    "queue",
    "service",
    "application",
    "model",
    "training",
    "results",
    "demonstrate",
    "significant",
    "gains",
    "across",
    "scenarios",
    "benchmark",
    "suite",
    "experiments",
    "testbed",
    "cluster",
    "fabric",
];

/// Surface-form variants for injecting a term occurrence.
fn surface_variant(term: &str, rng: &mut SimRng) -> String {
    let words: Vec<&str> = term.split(' ').collect();
    let mut out: Vec<String> = words.iter().map(|w| w.to_string()).collect();
    // Random capitalization of first letters.
    if rng.chance(0.5) {
        for w in &mut out {
            let mut c = w.chars();
            if let Some(f) = c.next() {
                *w = f.to_ascii_uppercase().to_string() + c.as_str();
            }
        }
    }
    // Plural on the last word (only for letter-final words).
    if rng.chance(0.3) {
        if let Some(last) = out.last_mut() {
            if last
                .chars()
                .last()
                .map(|c| c.is_ascii_alphabetic() && c != 's')
                .unwrap_or(false)
            {
                last.push('s');
            }
        }
    }
    if out.len() == 2 {
        let style = rng.below(4);
        match style {
            // Fused: "datacenter"
            0 => return out.concat().to_lowercase(),
            // Hyphenated.
            1 => return out.join("-"),
            // Permuted with comma: "network, industrial"
            2 => return format!("{}, {}", out[1], out[0]),
            _ => {}
        }
    }
    out.join(" ")
}

/// Generate the calibrated corpus: `n_papers` papers whose aggregate
/// term-group counts equal each group's `paper_count`.
pub fn generate(n_papers: usize, seed: u64) -> Vec<SynthPaper> {
    assert!(n_papers > 0);
    let mut rng = SimRng::seed_from_u64(seed);
    // Build per-paper filler bodies first. A body is a list of word ids:
    // an id below `FILLER.len()` is a filler word, any other indexes
    // the injected forms.
    let mut bodies: Vec<Vec<u32>> = (0..n_papers)
        .map(|_| {
            let words = 400 + rng.below(400) as usize;
            (0..words)
                .map(|_| rng.below(FILLER.len() as u64) as u32)
                .collect()
        })
        .collect();

    // A term may only be injected if it does not itself contain another
    // group's term (e.g. "industrial internet of things" embeds
    // "internet" and would silently inflate the Internet bar).
    let matcher = compiled_groups();
    let clean_terms: Vec<Vec<&'static str>> = GROUPS
        .iter()
        .enumerate()
        .map(|(gi, group)| {
            group
                .terms
                .iter()
                .copied()
                .filter(|t| {
                    let counts = matcher.count_docs([*t]);
                    counts.iter().enumerate().all(|(j, &n)| j == gi || n == 0)
                })
                .collect::<Vec<_>>()
        })
        .collect();

    // Inject each group's occurrences at random positions in random
    // papers. IT-side terms are concentrated (every paper mentions
    // them); OT-side terms land in few papers, like reality.
    let mut forms: Vec<String> = Vec::new();
    for (gi, group) in GROUPS.iter().enumerate() {
        let candidates = &clean_terms[gi];
        assert!(
            !candidates.is_empty(),
            "group {} has no self-contained term",
            group.label
        );
        for _ in 0..group.paper_count {
            let term = *rng.pick(candidates);
            let form = surface_variant(term, &mut rng);
            let paper = rng.below(n_papers as u64) as usize;
            let body = &mut bodies[paper];
            let pos = rng.below(body.len() as u64 + 1) as usize;
            body.insert(pos, (FILLER.len() + forms.len()) as u32);
            forms.push(format!(" {form} "));
        }
    }

    bodies
        .iter()
        .enumerate()
        .map(|(i, body)| SynthPaper {
            title: format!("synthetic-paper-{i:03}"),
            text: join_body(body, &forms),
        })
        .collect()
}

/// A body's words joined by single spaces, in one pre-sized `String`.
fn join_body(body: &[u32], forms: &[String]) -> String {
    let word = |id: u32| match FILLER.get(id as usize) {
        Some(w) => *w,
        None => forms[id as usize - FILLER.len()].as_str(),
    };
    let len = body.iter().map(|&id| word(id).len() + 1).sum::<usize>();
    let mut text = String::with_capacity(len);
    for (k, &id) in body.iter().enumerate() {
        if k > 0 {
            text.push(' ');
        }
        text.push_str(word(id));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::count_group;

    #[test]
    fn filler_is_clean() {
        // No filler word may trigger any term group.
        let blob = FILLER.join(" ");
        for g in GROUPS {
            assert_eq!(
                count_group(g.terms, &blob),
                Ok(0),
                "filler matches {}",
                g.label
            );
        }
    }

    #[test]
    fn corpus_counts_match_paper_exactly() {
        let corpus = generate(120, 42);
        let all: String = corpus
            .iter()
            .map(|p| p.text.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        for g in GROUPS {
            let measured = count_group(g.terms, &all).unwrap();
            assert_eq!(
                measured, g.paper_count,
                "{}: measured {measured} vs published {}",
                g.label, g.paper_count
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(10, 7);
        let b = generate(10, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.text, y.text);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(10, 1);
        let b = generate(10, 2);
        assert!(a.iter().zip(&b).any(|(x, y)| x.text != y.text));
    }
}
