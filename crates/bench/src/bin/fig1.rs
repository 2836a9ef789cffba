//! Regenerate **Fig. 1**: industrial-networking term occurrences in
//! recent SIGCOMM/HotNets proceedings.
//!
//! The real proceedings are copyrighted; by default the analyzer runs
//! over the calibrated synthetic corpus described by the committed
//! `specs/fig1.json` scenario spec (pass a different `.json` spec as
//! the first argument to change the corpus size or seed). Pass a
//! *directory* of `.txt` files as the first argument to analyze a real
//! corpus instead; bytes that are not UTF-8 count as separators.
//!
//! Corpus *generation* threads one RNG through every paper and stays
//! sequential; *analysis* is a sum of per-document term counts, so it
//! chunks the corpus across a `steelpar` worker pool (`--jobs N` /
//! `STEELWORKS_JOBS`) and merges by addition — the totals are identical
//! for any partition, so the output is byte-identical at any job count.

use std::path::Path;
use steelserve::figures::{fig1_corpus_report, run_spec};
use steelworks_corpus::prelude::read_corpus_dir;

/// The committed default spec (regenerates `results/fig1.txt`).
const DEFAULT_SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/fig1.json");

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = steelpar::resolve_jobs(steelpar::take_jobs_arg(&mut args));
    match args.first() {
        Some(dir) if Path::new(dir).is_dir() => {
            println!("# Fig. 1 over real corpus directory: {dir}");
            let texts = read_corpus_dir(Path::new(dir))
                // steelcheck: allow(panic-reachable): dies before any sweep starts, with a clear message
                .expect("readable corpus directory");
            print!("{}", fig1_corpus_report(&texts, true, jobs));
        }
        arg => {
            let path = arg.map(String::as_str).unwrap_or(DEFAULT_SPEC);
            let spec = steelworks_bench::load_spec(path, "fig1");
            print!("{}", run_spec(&spec, jobs));
        }
    }
}
