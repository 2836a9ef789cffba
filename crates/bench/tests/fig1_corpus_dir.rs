//! The `fig1` binary's real-corpus mode: a directory of `.txt` files.

use std::process::Command;

/// A file that is not UTF-8 (Latin-1 `0xE9`) is counted, not skipped:
/// the bad byte separates tokens like any other non-ASCII character.
#[test]
fn fig1_counts_latin1_files_in_a_corpus_dir() {
    let dir = std::env::temp_dir().join(format!("steelworks-fig1-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("latin1.txt"),
        b"caf\xE9 TCP over UDP, data\xE9center.",
    )
    .unwrap();
    std::fs::write(dir.join("utf8.txt"), "The Internet and a datacenter.").unwrap();
    std::fs::write(dir.join("skipped.pdf"), "tcp tcp tcp").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_fig1"))
        .arg(&dir)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let measured = |label: &str| -> u64 {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(label) && l[label.len()..].starts_with("  "))
            .unwrap_or_else(|| panic!("no {label} bar in:\n{stdout}"));
        line.split_whitespace()
            .rev()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap()
    };
    assert_eq!(measured("TCP/UDP/IPv4/IPv6"), 2);
    assert_eq!(measured("Datacenter"), 2);
    assert_eq!(measured("Internet"), 1);
}
