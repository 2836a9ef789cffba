//! The untraced run: set-up, the artifact phase and the serving phase
//! of one workload, reported as the end-to-end metrics.

use crate::clock::{median_of, nearest_rank, peak_rss_mb, timed, Stopwatch};
use crate::report::Outcome;
use crate::serve::{self, Plan, Server};
use crate::stamp::nproc;
use crate::workload::{check_artifact, family, headlines, seeded_stream, Headline, Workload};
use std::collections::BTreeSet;
use std::path::Path;
use steelserve::figures::run_spec;
use steelserve::spec::Spec;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Specs in the warm hit set (a whole number of every family's
/// rotation, so its make-up never depends on the seed).
pub const HIT_SET: usize = 40;
/// Rounds of an untraced run. Each round runs the artifact phase for
/// its share of the round, then the serving phase for the rest, so every
/// metric samples the whole run. On a shared host, memory latency drifts
/// by ±15% over 10-20 s, and a metric taken in one stretch of the run
/// inherits that stretch's drift.
const ROUNDS: usize = 8;

/// Inputs of one run, all derived from the seeds.
pub struct Inputs {
    /// Headline artifacts produced directly.
    pub headlines: Vec<Headline>,
    /// Warm hit set.
    pub hit_specs: Vec<Spec>,
    /// Fresh specs for the misses, never in the hit set.
    pub miss_specs: Vec<Spec>,
}

/// Derive the run's inputs: the workload's family drawn from `seed`
/// (hits and misses on separate streams) and its headline specs loaded
/// from the checkout.
pub fn inputs(
    w: Workload,
    root: &Path,
    seed: u64,
    spec_seed: Option<u64>,
    misses: usize,
) -> Result<Inputs, String> {
    let mut keys = BTreeSet::new();
    let hit_specs = family(w, HIT_SET, &mut seeded_stream(seed, 1), &mut keys);
    let miss_specs = family(w, misses, &mut seeded_stream(seed, 2), &mut keys);
    Ok(Inputs {
        headlines: headlines(w, root, spec_seed, &hit_specs)?,
        hit_specs,
        miss_specs,
    })
}

/// A set-up server: running, with the hit set warm in its cache.
pub struct Ready {
    /// The server.
    pub server: Server,
    /// Hit request bodies with the artifacts the warm fill returned.
    pub hits: Vec<(String, Vec<u8>)>,
}

/// Bind a server over a fresh cache in `cache_dir` and fill the warm
/// hit set through it.
pub fn warm_server(inputs: &Inputs, cache_dir: &Path, o: &mut Outcome) -> Result<Ready, String> {
    let server = Server::launch(cache_dir.to_path_buf())?;
    let bodies: Vec<String> = inputs.hit_specs.iter().map(Spec::canonical).collect();
    let artifacts = serve::fill_warm(server.addr(), &bodies, o);
    Ok(Ready {
        server,
        hits: bodies.into_iter().zip(artifacts).collect(),
    })
}

/// Share of each round kept for the serving phase; the artifact phase
/// runs first, in the rest.
fn serve_share(w: Workload) -> f64 {
    match w {
        Workload::Serve => 0.85,
        _ => 0.5,
    }
}

/// Check served bodies against local executions: every fresh miss, and
/// every warm hit artifact (all hits were compared with those).
pub fn verify_served(
    inputs: &Inputs,
    hits: &[(String, Vec<u8>)],
    load: &serve::Load,
    o: &mut Outcome,
) {
    for (i, (spec, (_, body))) in inputs.hit_specs.iter().zip(hits).enumerate() {
        let local = run_spec(spec, 1);
        o.tally(local.as_bytes() == body.as_slice(), || {
            format!("warm hit spec {i}: served bytes differ from a local run")
        });
    }
    for (j, body) in &load.miss_bodies {
        let local = run_spec(&inputs.miss_specs[*j], 1);
        o.tally(local.as_bytes() == body.as_slice(), || {
            format!("fresh spec {j}: served bytes differ from a local run")
        });
    }
}

/// The untraced run of `w`.
pub fn run_untraced(
    w: Workload,
    root: &Path,
    work: &Path,
    seed: u64,
    spec_seed: Option<u64>,
    seconds: f64,
    o: &mut Outcome,
) -> Result<(), String> {
    let jobs = nproc();
    let round_s = seconds / ROUNDS as f64;
    let plan = Plan::over(serve_share(w) * round_s);
    // Enough fresh specs to outlast every round's miss phase.
    let misses = ROUNDS * ((serve::MISS_RATE * plan.miss_s).ceil() as usize + 1);

    // Set-up, several times; the last one stays up for the serving phases.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let sw = Stopwatch::started();
        let inp = inputs(w, root, seed, spec_seed, misses)?;
        let ready = warm_server(
            &inp,
            &work.join(format!("cache-{}-setup{rep}", std::process::id())),
            o,
        )?;
        setup_times.push(sw.secs());
        if rep + 1 < SETUP_REPS {
            ready.server.stop_and_join()?;
        } else {
            live = Some((inp, ready));
        }
    }
    let Some((inp, ready)) = live else {
        return Err("no set-up completed".into());
    };

    let miss_requests: Vec<String> = inp.miss_specs.iter().map(Spec::canonical).collect();
    let mut rng = seeded_stream(seed, 3);
    let mut load = serve::Load::default();
    let mut times = Vec::new();
    let mut digests = vec![None; inp.headlines.len()];
    for _ in 0..ROUNDS {
        // Artifact phase: the headline specs, directly, at jobs = nproc,
        // at least once a round.
        let round = Stopwatch::started();
        loop {
            let (artifacts, t) = timed(|| {
                inp.headlines
                    .iter()
                    .map(|h| run_spec(&h.spec, jobs))
                    .collect::<Vec<_>>()
            });
            times.push(t);
            for ((h, a), slot) in inp.headlines.iter().zip(&artifacts).zip(&mut digests) {
                check_artifact(o, h, a, slot, "direct run");
            }
            if w == Workload::Serve && times.len() == 1 {
                for (i, (a, (_, served))) in artifacts.iter().zip(&ready.hits).enumerate() {
                    o.tally(a.as_bytes() == served.as_slice(), || {
                        format!(
                            "mix spec {i}: direct run at jobs {jobs} differs from the served artifact"
                        )
                    });
                }
            }
            if round.secs() >= (1.0 - serve_share(w)) * round_s {
                break;
            }
        }

        // Serving phase: its share of the round, however long the
        // artifact phase took (one campus repetition overruns its share).
        serve::drive(
            ready.server.addr(),
            &ready.hits,
            &miss_requests,
            plan,
            &mut rng,
            o,
            &mut load,
        );
    }
    serve::check_stats(&ready.server, o);
    ready.server.stop_and_join()?;
    verify_served(&inp, &ready.hits, &load, o);
    let mut hit_us = load.hit_us.clone();
    let mut lag_us = load.lag_us.clone();
    let q = |v: &mut Vec<f64>, p: f64| nearest_rank(v, p).unwrap_or(f64::NAN);
    o.note(format!(
        "{} artifact reps; {} sequential hits (p99 {:.0} us, p99.9 {:.0} us); {} misses beside hits at {:.0} req/s (send lag p50/p90/p99 {:.0}/{:.0}/{:.0} us)",
        times.len(),
        hit_us.len(),
        q(&mut hit_us, 0.99),
        q(&mut hit_us, 0.999),
        load.miss_ms.len(),
        serve::OPEN_RATE,
        q(&mut lag_us, 0.50),
        q(&mut lag_us, 0.90),
        q(&mut lag_us, 0.99)
    ));
    o.metric("setup_s", median_of(&setup_times).unwrap_or(f64::NAN));
    o.metric("artifact_s", median_of(&times).unwrap_or(f64::NAN));
    o.metric("peak_rss_mb", peak_rss_mb()?);
    o.metric("hit_p50_us", load.hit_quantile_us(0.50));
    o.metric("miss_p50_ms", median_of(&load.miss_ms).unwrap_or(f64::NAN));
    Ok(())
}
