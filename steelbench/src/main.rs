//! steelbench — the steelworks benchmark.
//!
//! ```text
//! steelbench --workload <reflect|campus|plant|serve> --seed <n>
//!            --seconds <s> --trace <0|1> [--spec-seed <n|held-out>]
//! ```
//!
//! Run from the root of a steelworks checkout. `--trace 0` measures the
//! end-to-end metrics of one workload; `--trace 1` runs the per-layer
//! sweep with span recording. Every metric is printed by name with its
//! unit, the run's result document (with the machine stamp) is written
//! under `.steelbench/results/`, the traced run's spans under
//! `.steelbench/trace/`, and the last stdout line is the result object.
//! The exit code is 1 if any check failed, 2 if the run could not be
//! carried out at all.

mod clock;
mod e2e;
mod layers;
mod report;
mod serve;
mod stamp;
mod trace;
mod workload;

use report::{Outcome, RunId, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Workload, HELD_OUT_SEED};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spec_seed: Option<u64>,
}

fn parse_args(mut args: Vec<String>) -> Result<Args, String> {
    let mut take = |flag: &str| -> Result<Option<String>, String> {
        let Some(at) = args.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if at + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(at + 1);
        args.remove(at);
        Ok(Some(value))
    };
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let workload = need(take("--workload")?, "--workload")?;
    let workload = Workload::from_name(&workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.cli_name()).collect();
        format!(
            "unknown workload `{workload}` (one of: {})",
            names.join(", ")
        )
    })?;
    let int = |v: String, flag: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} expects an integer, got `{v}`"))
    };
    let seed = int(need(take("--seed")?, "--seed")?, "--seed")?;
    let seconds = int(need(take("--seconds")?, "--seconds")?, "--seconds")?;
    let trace = match take("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    let spec_seed = match take("--spec-seed")? {
        None => None,
        Some(v) if v == "held-out" => Some(HELD_OUT_SEED),
        Some(v) => Some(int(v, "--spec-seed")?),
    };
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1) as f64,
        trace,
        spec_seed,
    })
}

/// The checkout root: the working directory, which must hold the
/// workspace the benchmark measures.
fn checkout_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    for needed in ["specs", "results", "crates"] {
        if !root.join(needed).is_dir() {
            return Err(format!(
                "{} has no {needed}/ directory; run from the root of a steelworks checkout",
                root.display()
            ));
        }
    }
    Ok(root)
}

fn run_cli(args: &Args, root: &Path) -> Result<bool, String> {
    let stamp = stamp::collect_stamp(root);
    let work = root.join(".steelbench");
    let w = args.workload.cli_name();
    println!(
        "# steelbench {w}: seed {}, {} s, trace {}, spec seed {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.spec_seed.map_or("committed".into(), |s| s.to_string())
    );
    println!(
        "# machine: nproc {}, {}; {}; commit {}; tree {}",
        stamp.nproc, stamp.machine, stamp.rustc, stamp.commit, stamp.tree
    );

    let mut o = Outcome::default();
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        let mut tr = trace::Tracer::new(args.seed);
        layers::run_traced(&mut tr, root, &work, args.seed, args.spec_seed, &mut o)?;
        let path = work
            .join("trace")
            .join(format!("{w}-seed{}.spans.json", args.seed));
        std::fs::create_dir_all(work.join("trace"))
            .map_err(|e| format!("create trace dir: {e}"))?;
        std::fs::write(&path, tr.spans_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        o.note(format!(
            "{} spans written to {}",
            tr.span_count(),
            path.display()
        ));
    } else {
        e2e::run_untraced(
            args.workload,
            root,
            &work,
            args.seed,
            args.spec_seed,
            args.seconds,
            &mut o,
        )?;
    }
    o.audit_metrics(declared);
    let order = |name: &str| {
        declared
            .iter()
            .position(|(d, _)| *d == name)
            .unwrap_or(usize::MAX)
    };
    o.metrics.sort_by_key(|(name, _)| order(name));

    let id = RunId {
        workload: w,
        seed: args.seed,
        spec_seed: args.spec_seed,
        trace: args.trace,
    };
    let path = report::write_result(&work.join("results"), &id, &stamp, &o, declared)?;
    report::print_table(&o, declared);
    println!("# result written to {}", path.display());
    println!("{}", report::result_line(&o, declared));
    Ok(o.failed == 0)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1).collect())
        .and_then(|args| checkout_root().and_then(|root| run_cli(&args, &root)));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("steelbench: {e}");
            ExitCode::from(2)
        }
    }
}
