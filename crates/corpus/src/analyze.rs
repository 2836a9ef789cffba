//! The Fig. 1 analysis: count every term group over a corpus.

use crate::terms::{compiled_groups, GROUPS};

/// One bar of the figure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupCount {
    /// Bar label.
    pub label: &'static str,
    /// Count measured over the supplied corpus.
    pub measured: u64,
    /// Count the paper published.
    pub published: u64,
}

/// Count all groups over an iterator of document texts.
pub fn analyze<'a, I: IntoIterator<Item = &'a str>>(docs: I) -> Vec<GroupCount> {
    GROUPS
        .iter()
        .zip(compiled_groups().count_docs(docs))
        .map(|(g, measured)| GroupCount {
            label: g.label,
            measured,
            published: g.paper_count,
        })
        .collect()
}

/// Read every `.txt` file in a directory. Bytes that are not UTF-8
/// decode to U+FFFD, which the tokenizer treats as a separator like any
/// other non-ASCII character, so a Latin-1 file is counted rather than
/// rejected.
pub fn read_corpus_dir(dir: &std::path::Path) -> std::io::Result<Vec<String>> {
    let mut texts = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().map(|e| e == "txt").unwrap_or(false) {
            texts.push(String::from_utf8_lossy(&std::fs::read(path)?).into_owned());
        }
    }
    Ok(texts)
}

/// Analyze every `.txt` file in a directory — run the Fig. 1 tool on a
/// real proceedings corpus.
pub fn analyze_dir(dir: &std::path::Path) -> std::io::Result<Vec<GroupCount>> {
    let texts = read_corpus_dir(dir)?;
    Ok(analyze(texts.iter().map(|s| s.as_str())))
}

/// The "research gap" summary the figure annotates: total OT-side
/// mentions (first ten groups) vs the smallest IT-side bar.
pub fn research_gap(counts: &[GroupCount]) -> (u64, u64) {
    let ot: u64 = counts.iter().take(10).map(|c| c.measured).sum();
    let min_it = counts
        .iter()
        .skip(10)
        .map(|c| c.measured)
        .min()
        .unwrap_or(0);
    (ot, min_it)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::generate;

    #[test]
    fn analyze_recovers_calibration() {
        let corpus = generate(80, 13);
        let texts: Vec<&str> = corpus.iter().map(|p| p.text.as_str()).collect();
        let counts = analyze(texts.iter().copied());
        assert_eq!(counts.len(), 13);
        for c in &counts {
            assert_eq!(c.measured, c.published, "{}", c.label);
        }
    }

    #[test]
    fn research_gap_reproduced() {
        let corpus = generate(80, 14);
        let texts: Vec<&str> = corpus.iter().map(|p| p.text.as_str()).collect();
        let counts = analyze(texts.iter().copied());
        let (ot, min_it) = research_gap(&counts);
        assert_eq!(ot, 73, "sum of the ten OT-side published counts");
        assert_eq!(min_it, 1943);
        assert!(min_it > 25 * ot);
    }

    #[test]
    fn analyze_dir_reads_txt_files() {
        let dir = std::env::temp_dir().join("steelworks-corpus-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.txt"), "The datacenter and the internet.").unwrap();
        std::fs::write(dir.join("b.txt"), "PROFINET beats TCP. Also TCP.").unwrap();
        std::fs::write(dir.join("ignored.pdf"), "tcp tcp tcp").unwrap();
        let counts = analyze_dir(&dir).unwrap();
        let get = |label: &str| {
            counts
                .iter()
                .find(|c| c.label == label)
                .map(|c| c.measured)
                .unwrap()
        };
        assert_eq!(get("Datacenter"), 1);
        assert_eq!(get("Internet"), 1);
        assert_eq!(get("PROFINET/EtherCAT/TSN"), 1);
        assert_eq!(get("TCP/UDP/IPv4/IPv6"), 2, "pdf ignored");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn analyze_dir_reads_latin1_files() {
        let dir = std::env::temp_dir().join("steelworks-corpus-latin1-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Latin-1 "café": 0xE9 is not UTF-8, and separates "data" from
        // "center" like any other non-ASCII character.
        std::fs::write(dir.join("latin1.txt"), b"caf\xE9 TCP, data\xE9center.").unwrap();
        std::fs::write(dir.join("utf8.txt"), "UDP").unwrap();
        assert_eq!(read_corpus_dir(&dir).unwrap().len(), 2);
        let counts = analyze_dir(&dir).unwrap();
        let get = |label: &str| counts.iter().find(|c| c.label == label).unwrap().measured;
        assert_eq!(get("TCP/UDP/IPv4/IPv6"), 2);
        assert_eq!(get("Datacenter"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_corpus_all_zero() {
        let counts = analyze(std::iter::empty());
        assert!(counts.iter().all(|c| c.measured == 0));
    }
}
