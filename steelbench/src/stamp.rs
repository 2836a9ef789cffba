//! The machine stamp every written result carries, so that numbers
//! from different machines or toolchains are visibly incomparable.

use std::path::Path;
use std::process::Command;
use steelserve::sha::Sha256;

/// Where a measurement was taken and what it measured.
#[derive(Clone, Debug)]
pub struct Stamp {
    /// Worker threads the machine offers (`available_parallelism`).
    pub nproc: usize,
    /// CPU model, memory size and host name.
    pub machine: String,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub commit: String,
    /// SHA-256 over the workspace sources and manifests, so a checkout
    /// without git history still names the code it measured.
    pub tree: String,
}

/// Collect the stamp for the checkout at `root`.
pub fn collect_stamp(root: &Path) -> Stamp {
    Stamp {
        nproc: nproc(),
        machine: machine_tag(),
        rustc: command_line(root, "rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        commit: command_line(root, "git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into()),
        tree: tree_digest(root),
    }
}

/// The worker count the benchmark fans out to.
pub fn nproc() -> usize {
    // steelcheck: allow(thread-outside-exec): reads the core count, spawns nothing
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's stdout, if it ran and succeeded. `output`
/// waits for the child, so no process outlives the call.
fn command_line(root: &Path, program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(root)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .next()
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty())
}

fn machine_tag() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown cpu", |(_, m)| m.trim())
        .to_string();
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_gib = meminfo
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kib| (kib + (1 << 19)) >> 20);
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    format!("{model}, {mem_gib} GiB, host {}", host.trim())
}

/// Digest of every `.rs` and `Cargo.toml` under `crates/` plus the root
/// manifest and lockfile, in sorted path order.
fn tree_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = Sha256::new();
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            continue;
        };
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        h.update(rel.as_bytes());
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(&bytes);
    }
    h.finish().iter().map(|b| format!("{b:02x}")).collect()
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "target" {
                collect_sources(&path, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}
