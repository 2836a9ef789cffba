//! The term groups of Fig. 1 and their published occurrence counts.

use crate::matcher::Matcher;

/// A group of related terms counted as one bar in Fig. 1.
#[derive(Clone, Debug)]
pub struct TermGroup {
    /// Bar label as printed in the figure.
    pub label: &'static str,
    /// Member terms (each a space-separated word sequence; matching
    /// handles case, plurals, hyphen/space fusion and word-order
    /// permutations).
    pub terms: &'static [&'static str],
    /// The count the paper reports for SIGCOMM'22/23 + HotNets'22/23.
    pub paper_count: u64,
}

/// All thirteen groups, in the figure's order (top = rarest).
pub const GROUPS: &[TermGroup] = &[
    TermGroup {
        label: "vPLC",
        terms: &["vplc", "virtual plc"],
        paper_count: 0,
    },
    TermGroup {
        label: "Industry 4.0/5.0",
        terms: &["industry 4.0", "industry 5.0"],
        paper_count: 1,
    },
    TermGroup {
        label: "IIoT",
        terms: &["iiot", "industrial internet of things"],
        paper_count: 1,
    },
    TermGroup {
        label: "PLC",
        terms: &["plc", "programmable logic controller"],
        paper_count: 2,
    },
    TermGroup {
        label: "Industrial Informatic",
        terms: &["industrial informatic"],
        paper_count: 4,
    },
    TermGroup {
        label: "Cyber Physical System",
        terms: &["cyber physical system"],
        paper_count: 6,
    },
    TermGroup {
        label: "IT/OT",
        terms: &["it/ot", "ot/it"],
        paper_count: 7,
    },
    TermGroup {
        label: "Industrial Network",
        terms: &["industrial network", "industrial control network"],
        paper_count: 14,
    },
    TermGroup {
        label: "PROFINET/EtherCAT/TSN",
        terms: &["profinet", "ethercat", "time sensitive networking", "tsn"],
        paper_count: 17,
    },
    TermGroup {
        label: "MQTT/OPC UA/VXLAN",
        terms: &["mqtt", "opc ua", "vxlan"],
        paper_count: 21,
    },
    TermGroup {
        label: "Datacenter",
        terms: &["datacenter", "data center"],
        paper_count: 1943,
    },
    TermGroup {
        label: "Internet",
        terms: &["internet"],
        paper_count: 2289,
    },
    TermGroup {
        label: "TCP/UDP/IPv4/IPv6",
        terms: &["tcp", "udp", "ipv4", "ipv6"],
        paper_count: 3005,
    },
];

/// `GROUPS` compiled for counting, one count per group in figure order.
pub(crate) fn compiled_groups() -> Matcher {
    let terms: Vec<&[&str]> = GROUPS.iter().map(|g| g.terms).collect();
    Matcher::new(&terms)
        // steelcheck: allow(unwrap-in-lib, panic-reachable): GROUPS hold 50 distinct tokens and fused forms, pinned by `groups_fit_one_mask`
        .expect("Fig. 1's term groups fit one token mask")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_groups_ordered_rare_to_common() {
        assert_eq!(GROUPS.len(), 13);
        for w in GROUPS.windows(2) {
            assert!(w[0].paper_count <= w[1].paper_count);
        }
    }

    #[test]
    fn groups_fit_one_mask() {
        let terms: Vec<&[&str]> = GROUPS.iter().map(|g| g.terms).collect();
        assert!(Matcher::new(&terms).is_ok());
        let mut distinct: Vec<String> = Vec::new();
        for term in GROUPS.iter().flat_map(|g| g.terms) {
            let tokens = crate::matcher::tokenize(term);
            let fused = (tokens.len() > 1).then(|| tokens.concat());
            for t in tokens.into_iter().chain(fused) {
                if !distinct.contains(&t) {
                    distinct.push(t);
                }
            }
        }
        assert_eq!(distinct.len(), 50);
    }

    #[test]
    fn research_gap_visible_in_counts() {
        // The OT-side groups together are dwarfed by any single IT term.
        let ot: u64 = GROUPS[..10].iter().map(|g| g.paper_count).sum();
        assert!(ot < 100);
        assert!(GROUPS[10].paper_count > 10 * ot);
    }
}
