//! Regression tests for the determinism contract: running the
//! figure-shaped sweeps through the worker pool must produce output
//! byte-identical to the sequential path, at any job count.
//!
//! Results are compared as *formatted strings* — the same rendering the
//! figure binaries print — so any divergence that could reach
//! `results/*.txt` fails here first.

use steelworks_core::prelude::*;
use steelworks_mlnet::prelude::MlApp;
use steelworks_xdpsim::prelude::{LoopVariant, ReflectVariant};

/// The fig6-shaped sweep: every (app, topology, client-count) point,
/// rendered exactly as the figure table cells are.
fn fig6_shaped(jobs: usize) -> Vec<String> {
    let cfg = StudyConfig::default();
    let mut grid = Vec::new();
    for app in MlApp::ALL {
        for kind in TopologyKind::ALL {
            for &n in &cfg.client_counts {
                grid.push((app, kind, n));
            }
        }
    }
    steelpar::run(jobs, grid, |(app, kind, n)| {
        let p = evaluate_point(kind, app, n, &cfg);
        format!(
            "{:?}/{:?}/{n}: {:.2} ms acc {:.3} util {:.2} cost {:.0}",
            app, kind, p.latency_ms, p.achieved_accuracy, p.max_utilization, p.cost
        )
    })
}

#[test]
fn fig6_sweep_identical_at_any_job_count() {
    let sequential = fig6_shaped(1);
    assert_eq!(sequential.len(), MlApp::ALL.len() * TopologyKind::ALL.len() * 4);
    for jobs in [2, 4] {
        assert_eq!(sequential, fig6_shaped(jobs), "jobs={jobs}");
    }
}

/// The fig4-shaped sweep at reduced cycle count, in the figure's own
/// fan-out order: the 25-flow run first, then the six variants, the
/// 1-flow run and the three loop programs, rendered as the binary's
/// summary lines are.
fn fig4_shaped(jobs: usize) -> Vec<String> {
    enum Scenario {
        Left(ReflectVariant),
        Flows(u32),
        Loop(LoopVariant),
    }
    let cycles = 300;
    let seed = 0x57EE1;
    let scenarios: Vec<Scenario> = std::iter::once(Scenario::Flows(25))
        .chain(ReflectVariant::ALL.iter().map(|&v| Scenario::Left(v)))
        .chain(std::iter::once(Scenario::Flows(1)))
        .chain(LoopVariant::ALL.iter().map(|&lv| Scenario::Loop(lv)))
        .collect();
    let median = |cdf: &[(f64, f64)]| {
        cdf.iter()
            .find(|(_, p)| *p >= 0.5)
            .map(|(x, _)| *x)
            .unwrap_or(0.0)
    };
    steelpar::run(jobs, scenarios, |s| match s {
        Scenario::Left(v) => {
            let (name, cdf) = fig4_left_one(v, seed, cycles);
            format!("{name}: median {:.2} us over {} points", median(&cdf), cdf.len())
        }
        Scenario::Flows(f) => {
            let mut out = fig4_right_one(f, seed, cycles);
            format!(
                "{f} flows: worst {:.2} us, burst {}, over {:.3} %",
                out.worst_delay_us(),
                out.max_jitter_burst,
                out.over_threshold_fraction * 100.0
            )
        }
        Scenario::Loop(lv) => {
            let (name, cdf) = fig4_loop_one(lv, seed, cycles);
            format!("{name}: median {:.2} us over {} points", median(&cdf), cdf.len())
        }
    })
}

#[test]
fn fig4_sweep_identical_at_any_job_count() {
    let sequential = fig4_shaped(1);
    assert_eq!(
        sequential.len(),
        ReflectVariant::ALL.len() + 2 + LoopVariant::ALL.len()
    );
    for jobs in [2, 3, 4] {
        assert_eq!(sequential, fig4_shaped(jobs), "jobs={jobs}");
    }
}
