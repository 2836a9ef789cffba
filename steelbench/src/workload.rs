//! The four workloads: which artifacts each produces directly, which
//! spec family it serves, and how its artifacts are checked.

use crate::report::Outcome;
use std::collections::BTreeSet;
use std::path::Path;
use steelserve::sha::sha256_hex;
use steelserve::spec::{sample_mix, CampusScale, Spec};
use steelworks_netsim::rng::SimRng;

/// The held-out spec seed. Runs with `--spec-seed` set to it replace
/// every spec seed; the committed bytes then no longer apply, so the
/// artifact checks fall back to CHECK lines and digest stability.
pub const HELD_OUT_SEED: u64 = 0x5EED_2026;

/// Frames per source in the campus workload: the committed spec's
/// scale points, including the 100k-node one, shortened through
/// `cycles` only.
pub const CAMPUS_CYCLES: u64 = 2;

/// The named workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `specs/fig4_loops.json`: xdpsim verify, lower and exec.
    Reflect,
    /// `specs/fig_campus.json` at `CAMPUS_CYCLES`: the netsim core
    /// under six-figure pending depth.
    Campus,
    /// The fig1, fig5, fig6 and challenges specs.
    Plant,
    /// steelserve over loopback on a `sample_mix` spec set.
    Serve,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Reflect,
        Workload::Campus,
        Workload::Plant,
        Workload::Serve,
    ];

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.cli_name() == name)
    }

    /// Stable name, as `--workload` takes it.
    pub fn cli_name(self) -> &'static str {
        match self {
            Workload::Reflect => "reflect",
            Workload::Campus => "campus",
            Workload::Plant => "plant",
            Workload::Serve => "serve",
        }
    }

    /// Committed spec files this workload renders (none for `serve`).
    fn spec_files(self) -> &'static [&'static str] {
        match self {
            Workload::Reflect => &["fig4_loops"],
            Workload::Campus => &["fig_campus"],
            Workload::Plant => &["fig1", "fig5", "fig6", "challenges"],
            Workload::Serve => &[],
        }
    }
}

/// One artifact a workload produces directly with `run_spec`.
#[derive(Clone, Debug)]
pub struct Headline {
    /// Spec file stem (`fig4_loops`), or a mix index for `serve`.
    pub name: String,
    /// The spec to run.
    pub spec: Spec,
    /// The committed bytes, when the spec is the committed one.
    pub expected: Option<String>,
}

/// Load the workload's headline specs from `root/specs`, apply the
/// campus resizing and the spec-seed override, and pair each with its
/// committed `results/*.txt` where those bytes still apply. For `serve`
/// the headline set is the warm hit set itself.
pub fn headlines(
    w: Workload,
    root: &Path,
    spec_seed: Option<u64>,
    hit_set: &[Spec],
) -> Result<Vec<Headline>, String> {
    if w == Workload::Serve {
        return Ok(hit_set
            .iter()
            .enumerate()
            .map(|(i, spec)| Headline {
                name: format!("mix{i}"),
                spec: spec.clone(),
                expected: None,
            })
            .collect());
    }
    let mut out = Vec::new();
    for name in w.spec_files() {
        let path = root.join("specs").join(format!("{name}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let committed = Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut spec = committed.clone();
        if let Spec::Campus { scales } = &mut spec {
            for s in scales.iter_mut() {
                s.cycles = CAMPUS_CYCLES;
            }
        }
        if let Some(seed) = spec_seed {
            spec = with_seed(spec, seed);
        }
        let expected = if spec == committed {
            let path = root.join("results").join(format!("{name}.txt"));
            Some(
                std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?,
            )
        } else {
            None
        };
        out.push(Headline {
            name: name.to_string(),
            spec,
            expected,
        });
    }
    Ok(out)
}

/// `spec` with every seed it carries replaced by `seed` (campus scale
/// points get `seed + index`, so they stay distinct worlds).
fn with_seed(spec: Spec, seed: u64) -> Spec {
    match spec {
        Spec::Fig1 { papers, .. } => Spec::Fig1 { papers, seed },
        Spec::Fig4 { cycles, loops, .. } => Spec::Fig4 {
            cycles,
            seed,
            loops,
        },
        Spec::Fig5 {
            crash_at_ms,
            migrate_at_ms,
            failback_at_ms,
            ..
        } => Spec::Fig5 {
            seed,
            crash_at_ms,
            migrate_at_ms,
            failback_at_ms,
        },
        Spec::Campus { scales } => Spec::Campus {
            scales: scales
                .into_iter()
                .enumerate()
                .map(|(i, s)| CampusScale {
                    seed: seed + i as u64,
                    ..s
                })
                .collect(),
        },
        other => other,
    }
}

/// The figure kinds `sample_mix` draws, in the order the `serve`
/// family cycles through them.
const MIX_KINDS: [&str; 5] = ["fig4", "fig1", "challenges", "fig6", "fig_campus"];

/// A deterministic stream for one purpose, derived from the run seed.
pub fn seeded_stream(seed: u64, label: u64) -> SimRng {
    SimRng::seed_from_u64(seed).fork(label)
}

/// Spec seeds stay in `0..=i64::MAX` for the integer-only wire format.
fn spec_seed_draw(rng: &mut SimRng) -> u64 {
    rng.next_u64() >> 1
}

/// One spec of the workload's serving family: the same figure kinds
/// as its headline, at parameters small enough that a miss costs
/// milliseconds. `serve` draws from `sample_mix`.
fn family_spec(w: Workload, rng: &mut SimRng, i: usize) -> Spec {
    match w {
        Workload::Reflect => Spec::Fig4 {
            cycles: 40,
            seed: spec_seed_draw(rng),
            loops: 1,
        },
        Workload::Campus => Spec::Campus {
            scales: vec![CampusScale {
                name: format!("f{i}"),
                cells: 2,
                leaves_per_cell: 2,
                endpoints_per_leaf: 8,
                period_us: 100,
                cycles: 4,
                seed: spec_seed_draw(rng),
            }],
        },
        // fig5 and fig1 cost ~30 ms a miss, fig6 and challenges a few:
        // three heavy specs in four keep the miss median inside one mode.
        Workload::Plant => match i % 8 {
            1 | 5 => Spec::Fig1 {
                papers: 8,
                seed: spec_seed_draw(rng),
            },
            0 | 2 | 4 | 6 => Spec::Fig5 {
                seed: spec_seed_draw(rng),
                crash_at_ms: 1_200,
                migrate_at_ms: 1_000,
                failback_at_ms: 2_000,
            },
            3 => Spec::Fig6 {
                accuracy_pct: rng.range(80, 96),
                client_counts: vec![32, rng.range(48, 200)],
            },
            _ => Spec::Challenges {
                trials: rng.range(200, 2_000),
            },
        },
        // Draws from sample_mix, stratified: spec i is of kind i mod 5, so
        // the set's cost does not swing with the seed's kind lottery.
        Workload::Serve => {
            let kind = MIX_KINDS[i % MIX_KINDS.len()];
            loop {
                let Some(spec) = sample_mix(1, spec_seed_draw(rng)).pop() else {
                    return Spec::Challenges { trials: 1_000 };
                };
                if spec.figure() == kind {
                    return spec;
                }
            }
        }
    }
}

/// `count` distinct family specs drawn from `rng`, skipping any whose
/// content address is in `exclude` (so a "fresh" miss can never be a
/// cache hit). Adds the drawn keys to `exclude`.
pub fn family(
    w: Workload,
    count: usize,
    rng: &mut SimRng,
    exclude: &mut BTreeSet<String>,
) -> Vec<Spec> {
    let mut out = Vec::with_capacity(count);
    let mut i = exclude.len();
    while out.len() < count {
        let spec = family_spec(w, rng, i);
        i += 1;
        if exclude.insert(spec.key()) {
            out.push(spec);
        }
    }
    out
}

/// Checks on one directly produced artifact: committed bytes where they
/// apply, for committed figure specs no failed and at least one passed
/// shape check, and the same digest as the first artifact of the same
/// headline. `serve`'s mix specs run far outside the parameters the
/// shape checks were calibrated for, so only their bytes are checked
/// (against the served artifacts).
pub fn check_artifact(
    o: &mut Outcome,
    h: &Headline,
    artifact: &str,
    digest_slot: &mut Option<String>,
    context: &str,
) {
    if let Some(expected) = &h.expected {
        o.tally(artifact == expected, || {
            format!(
                "{}: artifact ({context}) differs from results/{}.txt",
                h.name, h.name
            )
        });
    }
    if !h.name.starts_with("mix") {
        let fails = artifact
            .lines()
            .filter(|l| l.starts_with("# CHECK FAIL"))
            .count();
        o.tally(fails == 0, || {
            format!("{}: {fails} CHECK FAIL line(s) ({context})", h.name)
        });
        let oks = artifact
            .lines()
            .filter(|l| l.starts_with("# CHECK ok"))
            .count();
        o.tally(oks > 0, || {
            format!("{}: no CHECK lines ({context})", h.name)
        });
    }
    let digest = sha256_hex(artifact.as_bytes());
    match digest_slot {
        None => *digest_slot = Some(digest),
        Some(first) => o.tally(*first == digest, || {
            format!(
                "{}: artifact digest changed between runs ({context})",
                h.name
            )
        }),
    }
}
