//! The traced run: per-layer metrics, timed at the public functions of
//! each layer from the benchmark's side.
//!
//! Every traced run measures every layer, whatever its workload, so
//! per-layer numbers from any two traced runs line up. Each headline
//! (reflect, campus, plant) is run three ways: `run_spec` at
//! `jobs = nproc` and at `jobs = 1` (untraced; their ratio is the
//! steelpar speedup), and as a *traced pass* that makes the same calls
//! the figure makes — the same fan-outs over the same public functions —
//! with a span around every task. The traced pass yields the per-task
//! and per-layer times, the critical-path share, and, against the
//! untraced run, the tracing overhead.

use crate::clock::{median_of, nearest_rank, timed, Stopwatch};
use crate::e2e::{inputs, verify_served, warm_server, HIT_SET};
use crate::report::Outcome;
use crate::serve::{self, Plan};
use crate::stamp::nproc;
use crate::trace::{Span, Tracer};
use crate::workload::{check_artifact, headlines, seeded_stream, Headline, Workload};
use std::path::Path;
use steelserve::cache::ResultCache;
use steelserve::figures::run_spec;
use steelserve::spec::Spec;
use steelworks_core::prelude::*;
use steelworks_dataplane::prelude::{Field, FieldSet};
use steelworks_mlnet::prelude::MlApp;
use steelworks_netsim::event::{EventKind, EventQueue};
use steelworks_netsim::prelude::{Bytes, NanoDur, Nanos, NodeId, PortId, SimRng};
use steelworks_topo::prelude::{leaf_spine, shortest_path, EdgeAttr, HopWeight};
use steelworks_xdpsim::cost::CostModel;
use steelworks_xdpsim::prelude::{
    loop_variant, lower, reflect_variant, run_lowered, standard_maps, verify_with_proof,
    LoopVariant, Program, ReflectVariant, XdpContext,
};

/// Wall budget of one micro-measurement, seconds.
const MICRO_S: f64 = 0.15;
/// Seconds of load in the traced run's serving session.
const SERVE_SESSION_S: f64 = 3.0;

/// Median nanoseconds per call of `f`, from batches sized to take at
/// least a millisecond, over roughly `budget_s` seconds.
fn per_call_ns(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let mut batch = 1usize;
    loop {
        let sw = Stopwatch::started();
        for _ in 0..batch {
            f();
        }
        if sw.elapsed_nanos() >= 1_000_000 || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let clock = Stopwatch::started();
    let mut samples = Vec::new();
    while samples.len() < 5 || (clock.secs() < budget_s && samples.len() < 1_000) {
        let sw = Stopwatch::started();
        for _ in 0..batch {
            f();
        }
        samples.push(sw.elapsed_nanos() as f64 / batch as f64);
    }
    median_of(&samples).unwrap_or(f64::NAN)
}

/// Share of task time on the fan-outs' critical paths: the longest
/// task of every stage, over all task time.
fn critical_share(stages: &[Vec<f64>]) -> f64 {
    let longest: f64 = stages
        .iter()
        .map(|s| s.iter().copied().fold(0.0, f64::max))
        .sum();
    let total: f64 = stages.iter().flatten().sum();
    longest / total
}

/// The untraced `run_spec` timings of a headline set: median seconds
/// at `jobs = nproc` and at `jobs = 1`, with every artifact checked.
fn untraced_runs(
    tr: &mut Tracer,
    label: &str,
    hs: &[Headline],
    reps: usize,
    o: &mut Outcome,
) -> (f64, f64) {
    let jobs = nproc();
    let mut digests = vec![None; hs.len()];
    let mut at = |tr: &mut Tracer, j: usize| {
        let (arts, t) = tr.in_span(format!("{label}.run_spec[jobs={j}]"), |_| {
            hs.iter().map(|h| run_spec(&h.spec, j)).collect::<Vec<_>>()
        });
        for ((h, a), slot) in hs.iter().zip(&arts).zip(&mut digests) {
            check_artifact(o, h, a, slot, &format!("jobs {j}"));
        }
        t
    };
    let (mut tn, mut t1) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        tn.push(at(tr, jobs));
        t1.push(at(tr, 1));
    }
    (
        median_of(&tn).unwrap_or(f64::NAN),
        median_of(&t1).unwrap_or(f64::NAN),
    )
}

enum Fig4Task {
    Left(ReflectVariant),
    Flows(u32),
}

/// Traffic Reflection: the 11 fig4_loops scenarios and the xdpsim
/// engines under them.
fn reflect_layers(
    tr: &mut Tracer,
    root: &Path,
    spec_seed: Option<u64>,
    o: &mut Outcome,
) -> Result<(), String> {
    let hs = headlines(Workload::Reflect, root, spec_seed, &[])?;
    let Some(Spec::Fig4 { cycles, seed, .. }) = hs.first().map(|h| h.spec.clone()) else {
        return Err("reflect headline is not a fig4 spec".into());
    };
    let jobs = nproc();
    let (tn, t1) = untraced_runs(tr, "reflect", &hs, 3, o);

    // The traced pass, fanned out as fig4 does: 8 scenarios, then the
    // 3 loop programs.
    let epoch = tr.shared_epoch();
    let (stages, pass_s) = tr.in_span("reflect.traced_pass", |tr| {
        let tasks: Vec<Fig4Task> = ReflectVariant::ALL
            .iter()
            .map(|&v| Fig4Task::Left(v))
            .chain([1u32, 25].map(Fig4Task::Flows))
            .collect();
        let first = steelpar::run(jobs, tasks, move |t| match t {
            Fig4Task::Left(v) => {
                let name = format!("reflect.fig4_left_one[{}]", v.name());
                let (_, span) = Span::timed_on(epoch, name, || fig4_left_one(v, seed, cycles));
                (v.name().to_string(), span, None)
            }
            Fig4Task::Flows(f) => {
                let name = format!("reflect.fig4_right_one[flows{f}]");
                let (out, span) = Span::timed_on(epoch, name, || fig4_right_one(f, seed, cycles));
                (format!("flows{f}"), span, Some(out.stats.runs))
            }
        });
        let second = steelpar::run(jobs, LoopVariant::ALL.to_vec(), move |lv| {
            let name = format!("reflect.fig4_loop_one[{}]", lv.name());
            let (_, span) = Span::timed_on(epoch, name, || fig4_loop_one(lv, seed, cycles));
            (lv.name().to_string(), span, None)
        });
        [first, second].map(|stage| {
            tr.record_tasks(&stage.iter().map(|(_, s, _)| s.clone()).collect::<Vec<_>>());
            stage
        })
    });
    for (name, span, runs) in stages.iter().flatten() {
        o.metric(format!("reflect.scenario_ms.{name}"), span.secs() * 1e3);
        if let Some(runs) = runs {
            o.tally(*runs > 0, || {
                format!("reflect scenario {name} processed no frames")
            });
            o.metric(
                format!("reflect.ns_per_pkt.{name}"),
                span.secs() * 1e9 / *runs as f64,
            );
        }
    }
    let secs: Vec<Vec<f64>> = stages
        .iter()
        .map(|s| s.iter().map(|(_, sp, _)| sp.secs()).collect())
        .collect();
    o.metric("steelpar.speedup.reflect", t1 / tn);
    o.metric("steelpar.critical_share.reflect", critical_share(&secs));
    o.metric("trace.overhead_frac.reflect", pass_s / tn - 1.0);
    Ok(())
}

/// The campus node-count ladder: 16 cells × 16 leaves, endpoints per
/// leaf chosen for ~10k, ~25k, ~50k and ~100k nodes.
const LADDER: [(&str, usize); 4] = [("n10k", 38), ("n25k", 96), ("n50k", 194), ("n100k", 392)];

/// The netsim core at campus scale, and the event queue replaying the
/// campus's shape.
fn campus_layers(
    tr: &mut Tracer,
    root: &Path,
    spec_seed: Option<u64>,
    o: &mut Outcome,
) -> Result<(), String> {
    let hs = headlines(Workload::Campus, root, spec_seed, &[])?;
    let Some(Spec::Campus { scales }) = hs.first().map(|h| h.spec.clone()) else {
        return Err("campus headline is not a fig_campus spec".into());
    };
    let jobs = nproc();
    let (tn, t1) = untraced_runs(tr, "campus", &hs, 1, o);

    let configs: Vec<(String, CampusConfig)> = scales
        .iter()
        .map(|s| {
            let cfg = CampusConfig {
                cells: s.cells as usize,
                leaves_per_cell: s.leaves_per_cell as usize,
                endpoints_per_leaf: s.endpoints_per_leaf as usize,
                period: NanoDur::from_micros(s.period_us),
                cycles: s.cycles,
                seed: s.seed,
            };
            (
                format!("netsim.run_campus[{} n={}]", s.name, cfg.node_count()),
                cfg,
            )
        })
        .collect();
    let epoch = tr.shared_epoch();
    let (results, pass_s) = tr.in_span("campus.traced_pass", |tr| {
        let results = steelpar::run(jobs, configs.clone(), move |(name, cfg)| {
            Span::timed_on(epoch, name, || run_campus(&cfg))
        });
        tr.record_tasks(&results.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>());
        results
    });
    let mut events = 0;
    for ((name, _), (r, _)) in configs.iter().zip(&results) {
        o.tally(r.frames_received == r.frames_sent, || {
            format!(
                "{name}: {} of {} frames delivered",
                r.frames_received, r.frames_sent
            )
        });
        events += r.events_processed;
    }
    o.metric("netsim.events", events as f64);
    let secs = vec![results.iter().map(|(_, s)| s.secs()).collect::<Vec<_>>()];
    o.metric("steelpar.speedup.campus", t1 / tn);
    o.metric("steelpar.critical_share.campus", critical_share(&secs));
    o.metric("trace.overhead_frac.campus", pass_s / tn - 1.0);

    // The ladder, each point alone, shaped like the largest scale point.
    let base = configs
        .iter()
        .map(|(_, c)| c.clone())
        .max_by_key(CampusConfig::node_count)
        .ok_or("campus spec has no scale points")?;
    let mut sim_ns = Vec::new();
    let mut queue_ns = Vec::new();
    for (label, eps) in LADDER {
        let cfg = CampusConfig {
            cells: 16,
            leaves_per_cell: 16,
            endpoints_per_leaf: eps,
            ..base.clone()
        };
        let (r, t) = tr.in_span(
            format!("netsim.run_campus[ladder {label} n={}]", cfg.node_count()),
            |_| run_campus(&cfg),
        );
        o.tally(r.frames_received == r.frames_sent, || {
            format!("ladder {label}: frames lost")
        });
        let ns = t * 1e9 / r.events_processed.max(1) as f64;
        o.metric(format!("netsim.ns_per_event.{label}"), ns);
        sim_ns.push(ns);
        let ((ops, qt), _) = tr.in_span(format!("netsim.event_queue.replay[{label}]"), |_| {
            timed(|| replay_campus_shape(&cfg))
        });
        queue_ns.push(qt * 1e9 / ops.max(1) as f64);
    }
    let campus_shape = queue_ns[queue_ns.len() - 1];
    o.metric("netsim.event_queue.ns_per_op.campus_shape", campus_shape);
    // The replay stands for the simulator's queue only if its cost moves
    // the same way as the simulator's at every step of the ladder.
    let steps = |v: &[f64]| v.windows(2).map(|w| w[1] > w[0]).collect::<Vec<_>>();
    let tracks = steps(&sim_ns) == steps(&queue_ns);
    o.note(format!(
        "campus_shape replay {} the ladder: n10k→n100k per-event cost grows {:.2}x in the simulator, {:.2}x in the replayed queue",
        if tracks { "tracks" } else { "does NOT track" },
        sim_ns[sim_ns.len() - 1] / sim_ns[0],
        queue_ns[queue_ns.len() - 1] / queue_ns[0]
    ));

    let depth = base.cells * base.leaves_per_cell * base.endpoints_per_leaf / 2;
    let ((ops, t), _) = tr.in_span("netsim.event_queue.monotonic", |_| {
        timed(|| monotonic_queue(depth, 10 * depth))
    });
    o.metric(
        "netsim.event_queue.ns_per_op.monotonic",
        t * 1e9 / ops as f64,
    );
    Ok(())
}

/// Replay the campus's event shape on a bare `EventQueue`: every source
/// fires at its staggered phase, each frame then takes one event per
/// hop of its path class, and the next cycle fires a period later.
/// Returns the number of events popped.
fn replay_campus_shape(cfg: &CampusConfig) -> u64 {
    const STAGGER: u64 = 9973;
    const HOP_NS: u64 = 700;
    let period = cfg.period.as_nanos();
    let per_leaf = cfg.endpoints_per_leaf / 2;
    let sources = cfg.cells * cfg.leaves_per_cell * per_leaf;
    let hops = |g: usize| match (2 * (g % per_leaf)) % 8 {
        0 => 5, // ring
        4 => 4, // cell
        _ => 2, // local
    };
    let token = |cycle: u64, hop: u64| (cycle << 8) | hop;
    let mut q = EventQueue::new();
    q.reserve(sources);
    for g in 0..sources {
        let at = (g as u64 * STAGGER) % period;
        q.push(
            Nanos(at),
            EventKind::Timer {
                node: NodeId(g),
                token: token(0, 0),
            },
        );
    }
    let mut popped = 0u64;
    while q.peek_time().is_some() {
        let Some(ev) = q.pop() else { break };
        popped += 1;
        let EventKind::Timer { node, token: tok } = ev.kind else {
            continue;
        };
        let (cycle, hop) = (tok >> 8, tok & 0xff);
        let t = ev.at.0;
        if hop == 0 && cycle + 1 < cfg.cycles {
            q.push(
                Nanos(t + period),
                EventKind::Timer {
                    node,
                    token: token(cycle + 1, 0),
                },
            );
        }
        if hop < hops(node.0) {
            q.push(
                Nanos(t + HOP_NS),
                EventKind::Timer {
                    node,
                    token: token(cycle, hop + 1),
                },
            );
        }
    }
    popped
}

/// Push/pop pairs at a constant pending depth with monotonically
/// increasing times. Returns the pairs performed.
fn monotonic_queue(depth: usize, ops: usize) -> u64 {
    let mut q = EventQueue::new();
    q.reserve(depth + 1);
    for i in 0..depth {
        q.push(
            Nanos(i as u64),
            EventKind::Timer {
                node: NodeId(0),
                token: i as u64,
            },
        );
    }
    for t in depth as u64..(depth + ops) as u64 {
        q.push(
            Nanos(t),
            EventKind::Timer {
                node: NodeId(0),
                token: t,
            },
        );
        let _ = q.peek_time();
        let _ = q.pop();
    }
    ops as u64
}

/// The plant specs: corpus, InstaPLC and the ML-aware topology study,
/// fanned out as fig1, fig5 and fig6 do; challenges as one task.
fn plant_layers(
    tr: &mut Tracer,
    root: &Path,
    spec_seed: Option<u64>,
    o: &mut Outcome,
) -> Result<(), String> {
    let hs = headlines(Workload::Plant, root, spec_seed, &[])?;
    let jobs = nproc();
    let (tn, t1) = untraced_runs(tr, "plant", &hs, 5, o);
    let epoch = tr.shared_epoch();
    let mut stages: Vec<Vec<f64>> = Vec::new();
    let mut analyze_s = 0.0;
    let ((), pass_s) = tr.in_span("plant.traced_pass", |tr| {
        for h in &hs {
            match &h.spec {
                Spec::Fig1 { papers, seed } => {
                    use steelworks_corpus::prelude::{analyze, generate};
                    let (texts, gen_s) = tr.in_span("corpus.generate", |_| {
                        generate(*papers as usize, *seed)
                            .into_iter()
                            .map(|p| p.text)
                            .collect::<Vec<_>>()
                    });
                    o.metric("corpus.generate_ms", gen_s * 1e3);
                    stages.push(vec![gen_s]);
                    let chunk = texts.len().div_ceil(jobs.min(texts.len()).max(1)).max(1);
                    let spans =
                        steelpar::run(jobs, texts.chunks(chunk).enumerate().collect(), |(i, c)| {
                            Span::timed_on(epoch, format!("corpus.analyze[chunk {i}]"), || {
                                analyze(c.iter().map(String::as_str))
                            })
                            .1
                        });
                    tr.record_tasks(&spans);
                    analyze_s = spans.iter().map(Span::secs).sum();
                    stages.push(spans.iter().map(Span::secs).collect());
                }
                Spec::Fig5 {
                    seed,
                    crash_at_ms,
                    migrate_at_ms,
                    failback_at_ms,
                } => {
                    let cfg = ScenarioConfig {
                        crash_at: Nanos::from_millis(*crash_at_ms),
                        seed: *seed,
                        ..ScenarioConfig::default()
                    };
                    let (m, f) = (*migrate_at_ms, *failback_at_ms);
                    let spans = steelpar::run(jobs, vec![false, true], |migration| {
                        if migration {
                            let never = ScenarioConfig {
                                crash_at: Nanos::from_secs(100),
                                ..cfg.clone()
                            };
                            Span::timed_on(epoch, "instaplc.run_migration_scenario", || {
                                run_migration_scenario(
                                    &never,
                                    Nanos::from_millis(m),
                                    Some(Nanos::from_millis(f)),
                                )
                            })
                            .1
                        } else {
                            Span::timed_on(epoch, "instaplc.run_scenario", || run_scenario(&cfg)).1
                        }
                    });
                    tr.record_tasks(&spans);
                    o.metric("instaplc.crash_ms", spans[0].secs() * 1e3);
                    o.metric("instaplc.migration_ms", spans[1].secs() * 1e3);
                    stages.push(spans.iter().map(Span::secs).collect());
                }
                Spec::Fig6 {
                    accuracy_pct,
                    client_counts,
                } => {
                    let cfg = StudyConfig {
                        accuracy_target: *accuracy_pct as f64 / 100.0,
                        client_counts: client_counts.iter().map(|&n| n as usize).collect(),
                        ..StudyConfig::default()
                    };
                    let mut grid = Vec::new();
                    for app in MlApp::ALL {
                        for kind in TopologyKind::ALL {
                            for &n in &cfg.client_counts {
                                grid.push((app, kind, n));
                            }
                        }
                    }
                    let spans = steelpar::run(jobs, grid, |(app, kind, n)| {
                        let name = format!(
                            "mlaware.evaluate_point[{} {} n={n}]",
                            app.profile().name,
                            kind.name()
                        );
                        Span::timed_on(epoch, name, || evaluate_point(kind, app, n, &cfg)).1
                    });
                    tr.record_tasks(&spans);
                    let secs: Vec<f64> = spans.iter().map(Span::secs).collect();
                    o.metric(
                        "mlaware.point_us",
                        secs.iter().sum::<f64>() / secs.len().max(1) as f64 * 1e6,
                    );
                    stages.push(secs);
                }
                other => {
                    let (_, t) = tr.in_span(format!("{}.run_spec", other.figure()), |_| {
                        run_spec(other, jobs)
                    });
                    stages.push(vec![t]);
                }
            }
        }
    });
    o.metric("corpus.analyze_ms", analyze_s * 1e3);
    o.metric("steelpar.speedup.plant", t1 / tn);
    o.metric("steelpar.critical_share.plant", critical_share(&stages));
    o.metric("trace.overhead_frac.plant", pass_s / tn - 1.0);
    Ok(())
}

/// The nine shipped XDP programs: six reflection variants, three loops.
fn shipped_programs() -> Vec<(Program, bool)> {
    let (_, rb) = standard_maps();
    ReflectVariant::ALL
        .iter()
        .map(|&v| (reflect_variant(v, rb), false))
        .chain(LoopVariant::ALL.iter().map(|&v| (loop_variant(v), true)))
        .collect()
}

/// Packets per execution sweep.
const SWEEP: u64 = 64;

/// xdpsim: verify, lower and both execution engines.
fn xdpsim_layers(tr: &mut Tracer, o: &mut Outcome) -> Result<(), String> {
    let (maps, _) = standard_maps();
    let cm = CostModel::default();
    let progs = shipped_programs();
    let mut verify_ns = Vec::new();
    let mut lower_ns = Vec::new();
    let mut exec = Vec::new(); // (is_loop, ns per run, insns per run)
    let mut interp_ns = Vec::new();
    tr.in_span("xdpsim", |tr| -> Result<(), String> {
        for (prog, is_loop) in &progs {
            let name = prog.name.clone();
            let (stats, proof) =
                verify_with_proof(prog, &maps).map_err(|e| format!("{name}: {e}"))?;
            let lp = lower(prog, &proof).map_err(|e| format!("{name}: {e:?}"))?;
            let (v, _) = tr.in_span(format!("xdpsim.verify_with_proof[{name}]"), |_| {
                per_call_ns(MICRO_S, || {
                    let _ = verify_with_proof(prog, &maps);
                })
            });
            verify_ns.push(v);
            let (l, _) = tr.in_span(format!("xdpsim.lower[{name}]"), |_| {
                per_call_ns(MICRO_S, || {
                    let _ = lower(prog, &proof);
                })
            });
            lower_ns.push(l);

            // One sweep: SWEEP packets, fresh maps, both engines agree.
            let sweep = |lowered: bool| {
                let mut maps = maps.clone();
                let mut rng = SimRng::seed_from_u64(0x1077);
                let mut out = Vec::with_capacity(SWEEP as usize);
                for i in 0..SWEEP {
                    let mut pkt = vec![0u8; 64];
                    pkt[0] = i as u8;
                    let ctx = XdpContext::default();
                    let r = if lowered {
                        run_lowered(&lp, &mut pkt, ctx, &mut maps, &cm, i, 0, &mut rng)
                    } else {
                        steelworks_xdpsim::vm::run_with(
                            prog,
                            None,
                            stats.max_insns,
                            &mut pkt,
                            ctx,
                            &mut maps,
                            &cm,
                            i,
                            0,
                            &mut rng,
                        )
                    };
                    out.push((r.action, r.cost.insns, r.trap.is_some()));
                }
                out
            };
            let lowered = sweep(true);
            let reference = sweep(false);
            o.tally(lowered == reference, || {
                format!("{name}: lowered engine disagrees with the interpreter")
            });
            let insns: u64 = lowered.iter().map(|(_, n, _)| n).sum();
            let (e, _) = tr.in_span(format!("xdpsim.run_lowered[{name}]"), |_| {
                per_call_ns(MICRO_S, || {
                    let _ = sweep(true);
                })
            });
            exec.push((*is_loop, e / SWEEP as f64, insns as f64 / SWEEP as f64));
            if *is_loop {
                let (i, _) = tr.in_span(format!("xdpsim.vm_run_with[{name}]"), |_| {
                    per_call_ns(MICRO_S, || {
                        let _ = sweep(false);
                    })
                });
                interp_ns.push(i / SWEEP as f64);
            }
        }
        Ok(())
    })
    .0?;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let pick = |want: bool, f: fn(&(bool, f64, f64)) -> f64| {
        mean(
            &exec
                .iter()
                .filter(|e| e.0 == want)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    o.metric("xdpsim.verify_us", mean(&verify_ns) / 1e3);
    o.metric("xdpsim.lower_us", mean(&lower_ns) / 1e3);
    o.metric("xdpsim.exec_ns_per_run.reflect", pick(false, |e| e.1));
    o.metric("xdpsim.exec_ns_per_run.loops", pick(true, |e| e.1));
    let total_ns: f64 = exec.iter().map(|e| e.1).sum();
    let total_insns: f64 = exec.iter().map(|e| e.2).sum();
    o.metric("xdpsim.exec_ns_per_insn", total_ns / total_insns);
    o.metric("xdpsim.insns_per_run.loops", pick(true, |e| e.2));
    o.metric("xdpsim.interp_ns_per_run.loops", mean(&interp_ns));
    Ok(())
}

/// Single calls into the smaller layers: the InstaPLC data-plane
/// pipeline, topology routing and an empty steelpar fan-out.
fn small_layers(tr: &mut Tracer, o: &mut Outcome) {
    let mut pipeline = build_pipeline();
    let payload = Bytes::from_static(&[0u8; 46]);
    let mut t = 0u64;
    let (ns, _) = tr.in_span("dataplane.Pipeline::process", |_| {
        per_call_ns(MICRO_S, || {
            let mut fs = FieldSet::default();
            fs.set(Field::RtFrameType, 1 + t % 4);
            fs.set(Field::RtFrameId, 0x8001);
            t += 1;
            let _ = pipeline.process(fs, PortId(0), Nanos(t), 8, 64, &payload);
        })
    });
    o.metric("dataplane.process_ns", ns);

    let built = leaf_spine(4, 8, 16, EdgeAttr::gigabit_local());
    let fog = built.compute[0];
    let mut i = 0usize;
    let (ns, _) = tr.in_span("topo.shortest_path", |_| {
        per_call_ns(MICRO_S, || {
            let c = built.clients[i % built.clients.len()];
            i += 1;
            let _ = shortest_path(&built.graph, c, fog, &HopWeight);
        })
    });
    o.metric("topo.shortest_path_us", ns / 1e3);

    let jobs = nproc();
    let (ns, _) = tr.in_span("steelpar.run[empty]", |_| {
        per_call_ns(MICRO_S, || {
            let _ = steelpar::run(jobs, vec![0u8; jobs], |x| x);
        })
    });
    o.metric("steelpar.spawn_us", ns / 1e3);
}

/// steelserve's layers one call at a time, then a short serving session
/// for the server's own counters. Both use the `serve` workload's spec
/// family, so these numbers do not depend on the traced workload.
fn steelserve_layers(
    tr: &mut Tracer,
    root: &Path,
    work: &Path,
    seed: u64,
    o: &mut Outcome,
) -> Result<(), String> {
    let inp = inputs(Workload::Serve, root, seed, None, HIT_SET)?;
    let texts: Vec<String> = inp.hit_specs.iter().map(Spec::canonical).collect();
    let mut i = 0usize;
    let (ns, _) = tr.in_span("steelserve.Spec::parse", |_| {
        per_call_ns(MICRO_S, || {
            let _ = Spec::parse(&texts[i % texts.len()]);
            i += 1;
        })
    });
    o.metric("steelserve.spec_parse_us", ns / 1e3);
    let (ns, _) = tr.in_span("steelserve.Spec::key", |_| {
        per_call_ns(MICRO_S, || {
            let _ = inp.hit_specs[i % texts.len()].key();
            i += 1;
        })
    });
    o.metric("steelserve.key_us", ns / 1e3);

    let (runs, _) = tr.in_span("steelserve.run_spec[miss specs]", |_| {
        inp.miss_specs
            .iter()
            .map(|s| timed(|| run_spec(s, 1)))
            .collect::<Vec<_>>()
    });
    let exec_s: Vec<f64> = runs.iter().map(|(_, t)| *t).collect();
    o.metric(
        "steelserve.miss_exec_ms",
        median_of(&exec_s).unwrap_or(f64::NAN) * 1e3,
    );

    let dir = work.join(format!("cache-{}-layers", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let entries: Vec<(&Spec, &str)> = inp
        .miss_specs
        .iter()
        .zip(runs.iter().map(|(a, _)| a.as_str()))
        .collect();
    let mut stores = Vec::new();
    tr.in_span("steelserve.ResultCache::store", |_| {
        for (spec, artifact) in &entries {
            let (r, t) = timed(|| cache.store(spec, artifact));
            o.tally(r.is_ok(), || format!("cache store failed: {r:?}"));
            stores.push(t * 1e6);
        }
    });
    o.metric(
        "steelserve.cache_store_us",
        median_of(&stores).unwrap_or(f64::NAN),
    );
    let keys: Vec<String> = entries.iter().map(|(s, _)| s.key()).collect();
    let (ns, _) = tr.in_span("steelserve.ResultCache::lookup", |_| {
        per_call_ns(MICRO_S, || {
            let _ = cache.lookup(&keys[i % keys.len()]);
            i += 1;
        })
    });
    o.metric("steelserve.cache_lookup_us", ns / 1e3);
    for ((spec, artifact), key) in entries.iter().zip(&keys) {
        let back = cache.lookup(key);
        o.tally(back.as_deref() == Some(*artifact), || {
            format!("cache lookup of {} lost its bytes", spec.figure())
        });
    }
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);

    // A short serving session for /stats and the load generator's lag.
    let (load, _) = tr.in_span("steelserve.session", |_| -> Result<serve::Load, String> {
        let ready = warm_server(
            &inp,
            &work.join(format!("cache-{}-session", std::process::id())),
            o,
        )?;
        let misses: Vec<String> = inp.miss_specs.iter().map(Spec::canonical).collect();
        let mut load = serve::Load::default();
        serve::drive(
            ready.server.addr(),
            &ready.hits,
            &misses,
            Plan::over(SERVE_SESSION_S),
            &mut seeded_stream(seed, 3),
            o,
            &mut load,
        );
        let stats = serve::check_stats(&ready.server, o);
        let get = |k: &str| stats.get(k).copied().unwrap_or(0) as f64;
        let runs = get("run_hits") + get("run_misses") + get("run_waits");
        o.metric("steelserve.hit_ratio", get("run_hits") / runs.max(1.0));
        o.metric("steelserve.waits", get("run_waits"));
        o.metric("steelserve.errors", get("run_errors"));
        o.metric("steelserve.crosschecks", get("crosschecks"));
        ready.server.stop_and_join()?;
        verify_served(&inp, &ready.hits, &load, o);
        Ok(load)
    });
    let load = load?;
    o.metric("steelserve.hit_p90_us", load.hit_quantile_us(0.90));
    o.metric("steelserve.hit_rps", load.hit_rps());
    let mut lag = load.lag_us;
    o.metric(
        "loadgen.lag_p99_us",
        nearest_rank(&mut lag, 0.99).unwrap_or(f64::NAN),
    );
    Ok(())
}

/// The traced run. Spans go to `tr`; metrics and checks to `o`.
pub fn run_traced(
    tr: &mut Tracer,
    root: &Path,
    work: &Path,
    seed: u64,
    spec_seed: Option<u64>,
    o: &mut Outcome,
) -> Result<(), String> {
    tr.in_span("reflect", |tr| reflect_layers(tr, root, spec_seed, o))
        .0?;
    tr.in_span("campus", |tr| campus_layers(tr, root, spec_seed, o))
        .0?;
    tr.in_span("plant", |tr| plant_layers(tr, root, spec_seed, o))
        .0?;
    xdpsim_layers(tr, o)?;
    tr.in_span("small_layers", |tr| small_layers(tr, o));
    tr.in_span("steelserve", |tr| {
        steelserve_layers(tr, root, work, seed, o)
    })
    .0
}
