//! Metric names, the result object and where results are written.
//!
//! The metric lists here mirror `BENCHMARK.json`: a run that fails to
//! produce one of them, or produces one that is not listed, is a broken
//! benchmark and counts as a failure.

use crate::stamp::Stamp;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("artifact_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("hit_p50_us", "us"),
    ("miss_p50_ms", "ms"),
];

/// Per-layer metrics (traced runs), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.ns_per_event.n10k", "ns"),
    ("netsim.ns_per_event.n25k", "ns"),
    ("netsim.ns_per_event.n50k", "ns"),
    ("netsim.ns_per_event.n100k", "ns"),
    ("netsim.events", "count"),
    ("netsim.event_queue.ns_per_op.campus_shape", "ns"),
    ("netsim.event_queue.ns_per_op.monotonic", "ns"),
    ("xdpsim.verify_us", "us"),
    ("xdpsim.lower_us", "us"),
    ("xdpsim.exec_ns_per_run.reflect", "ns"),
    ("xdpsim.exec_ns_per_run.loops", "ns"),
    ("xdpsim.exec_ns_per_insn", "ns"),
    ("xdpsim.insns_per_run.loops", "count"),
    ("xdpsim.interp_ns_per_run.loops", "ns"),
    ("reflect.ns_per_pkt.flows1", "ns"),
    ("reflect.ns_per_pkt.flows25", "ns"),
    ("reflect.scenario_ms.Base", "ms"),
    ("reflect.scenario_ms.TS", "ms"),
    ("reflect.scenario_ms.TS-TS", "ms"),
    ("reflect.scenario_ms.TS-RB", "ms"),
    ("reflect.scenario_ms.TS-OW", "ms"),
    ("reflect.scenario_ms.TS-D-RB", "ms"),
    ("reflect.scenario_ms.flows1", "ms"),
    ("reflect.scenario_ms.flows25", "ms"),
    ("reflect.scenario_ms.L-SCAN", "ms"),
    ("reflect.scenario_ms.L-CSUM", "ms"),
    ("reflect.scenario_ms.L-TLV", "ms"),
    ("steelpar.speedup.reflect", "x"),
    ("steelpar.speedup.campus", "x"),
    ("steelpar.speedup.plant", "x"),
    ("steelpar.critical_share.reflect", "ratio"),
    ("steelpar.critical_share.campus", "ratio"),
    ("steelpar.critical_share.plant", "ratio"),
    ("steelpar.spawn_us", "us"),
    ("corpus.generate_ms", "ms"),
    ("corpus.analyze_ms", "ms"),
    ("instaplc.crash_ms", "ms"),
    ("instaplc.migration_ms", "ms"),
    ("dataplane.process_ns", "ns"),
    ("mlaware.point_us", "us"),
    ("topo.shortest_path_us", "us"),
    ("steelserve.spec_parse_us", "us"),
    ("steelserve.key_us", "us"),
    ("steelserve.cache_lookup_us", "us"),
    ("steelserve.cache_store_us", "us"),
    ("steelserve.miss_exec_ms", "ms"),
    ("steelserve.hit_p90_us", "us"),
    ("steelserve.hit_rps", "req/s"),
    ("steelserve.hit_ratio", "ratio"),
    ("steelserve.waits", "count"),
    ("steelserve.errors", "count"),
    ("steelserve.crosschecks", "count"),
    ("loadgen.lag_p99_us", "us"),
    ("trace.overhead_frac.reflect", "ratio"),
    ("trace.overhead_frac.campus", "ratio"),
    ("trace.overhead_frac.plant", "ratio"),
];

/// Everything one run found: its checks and its metrics.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (artifacts, requests, comparisons).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failure, for the log and the result file.
    pub failures: Vec<String>,
    /// Measured metrics, in report order.
    pub metrics: Vec<(String, f64)>,
    /// Free-form findings worth keeping next to the numbers.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation; a failed one is also logged.
    pub fn tally(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = what();
            eprintln!("FAIL: {line}");
            self.failures.push(line);
        }
    }

    /// Count `n` operations that all succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record a metric value.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Keep a note in the result file and print it.
    pub fn note(&mut self, line: impl Into<String>) {
        let line = line.into();
        println!("# {line}");
        self.notes.push(line);
    }

    /// Hold the reported metric set to the declared one: every declared
    /// metric present once, finite, and nothing else.
    pub fn audit_metrics(&mut self, declared: &[(&str, &str)]) {
        let mut problems = Vec::new();
        for (name, _) in declared {
            match self.metrics.iter().filter(|(n, _)| n == name).count() {
                1 => {}
                0 => problems.push(format!("metric {name} was not measured")),
                k => problems.push(format!("metric {name} reported {k} times")),
            }
        }
        for (name, value) in &self.metrics {
            if !declared.iter().any(|(d, _)| d == name) {
                problems.push(format!("metric {name} is not declared"));
            }
            if !value.is_finite() {
                problems.push(format!("metric {name} is not finite ({value})"));
            }
        }
        for p in problems {
            self.tally(false, || p);
        }
    }

    /// The failed share of attempted operations.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite float as JSON (non-finite values become `null`; the audit
/// has already failed the run for them).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn unit_of<'a>(declared: &[(&'a str, &'a str)], name: &str) -> &'a str {
    declared
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, u)| u)
}

/// The `"metrics"` object of the result line.
fn metrics_json(o: &Outcome, declared: &[(&str, &str)]) -> String {
    let body: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_num(*v),
                json_string(unit_of(declared, name))
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one-line result object printed last on stdout.
pub fn result_line(o: &Outcome, declared: &[(&str, &str)]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics_json(o, declared)
    )
}

/// Print every metric by name with its unit.
pub fn print_table(o: &Outcome, declared: &[(&str, &str)]) {
    println!("# {:<44} {:>16}  unit", "metric", "value");
    for (name, v) in &o.metrics {
        println!("# {name:<44} {v:>16.4}  {}", unit_of(declared, name));
    }
    println!(
        "# {:<44} {:>16.6}  ratio   ({} failed of {} attempted)",
        "failed_frac",
        o.failed_frac(),
        o.failed,
        o.attempted
    );
}

/// Identity of one run: what was measured, with which inputs.
pub struct RunId<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Spec-seed override, when the held-out seed is in use.
    pub spec_seed: Option<u64>,
    /// Whether this was the traced run.
    pub trace: bool,
}

/// Write the result document (stamp, metrics, checks) under `out_dir`
/// and return its path.
pub fn write_result(
    out_dir: &Path,
    id: &RunId<'_>,
    stamp: &Stamp,
    o: &Outcome,
    declared: &[(&str, &str)],
) -> Result<PathBuf, String> {
    let mut doc = String::from("{\n");
    let field = |doc: &mut String, key: &str, value: String| {
        let _ = writeln!(doc, "  {}: {value},", json_string(key));
    };
    field(&mut doc, "workload", json_string(id.workload));
    field(&mut doc, "seed", id.seed.to_string());
    field(
        &mut doc,
        "spec_seed",
        id.spec_seed.map_or("null".into(), |s| s.to_string()),
    );
    field(&mut doc, "trace", id.trace.to_string());
    field(&mut doc, "nproc", stamp.nproc.to_string());
    field(&mut doc, "machine", json_string(&stamp.machine));
    field(&mut doc, "rustc", json_string(&stamp.rustc));
    field(&mut doc, "commit", json_string(&stamp.commit));
    field(&mut doc, "tree_sha256", json_string(&stamp.tree));
    field(&mut doc, "attempted", o.attempted.to_string());
    field(&mut doc, "failed", o.failed.to_string());
    field(&mut doc, "failed_frac", json_num(o.failed_frac()));
    let list = |items: &[String]| {
        format!(
            "[{}]",
            items
                .iter()
                .map(|s| json_string(s))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    field(&mut doc, "failures", list(&o.failures));
    field(&mut doc, "notes", list(&o.notes));
    let _ = writeln!(doc, "  \"metrics\": {}", metrics_json(o, declared));
    doc.push_str("}\n");

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let name = format!(
        "{}-seed{}{}-trace{}.json",
        id.workload,
        id.seed,
        id.spec_seed.map_or(String::new(), |s| format!("-spec{s}")),
        u8::from(id.trace)
    );
    let path = out_dir.join(name);
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}
