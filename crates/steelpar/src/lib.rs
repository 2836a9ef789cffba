//! # steelpar
//!
//! Deterministic parallel execution of independent simulation
//! scenarios. Every figure in the reproduction is an embarrassingly
//! parallel sweep — variants × flow regimes, seeds × fault grids,
//! topologies × client counts — where each scenario owns its own
//! `Simulator` and forked `SimRng`, so no shared mutable state crosses
//! scenario boundaries. This crate is the one place in the workspace
//! allowed to spawn threads (enforced by steelcheck's
//! `thread-outside-exec` rule): a fixed worker pool over
//! [`std::thread::scope`], **dynamic** work claiming, and
//! **order-preserving** result collection.
//!
//! ## Why the output cannot depend on the job count
//!
//! Two properties keep `results/*.txt` byte-identical between
//! `jobs = 1` and `jobs = N`:
//!
//! 1. **Parallel across scenarios, serial within a simulation.** A
//!    worker runs one scenario at a time, single-threaded, exactly as
//!    the sequential path would. Nothing inside `netsim` or the crates
//!    above it spawns threads, so a scenario's event order, RNG stream
//!    and trace are untouched by the pool.
//! 2. **Order-preserving collection.** Each result is stored at its
//!    input index; [`run`] returns `Vec<R>` in input order regardless
//!    of completion order. Callers format results exactly as the
//!    sequential loop did.
//!
//! Which worker runs which item is *not* fixed: a free worker claims
//! the next unclaimed item from a shared queue, so the assignment
//! depends on timing. It cannot reach the output. By (1) a result is a
//! function of its item alone, not of the thread that computed it, and
//! by (2) its position is its input index, not its completion time.
//! Callers with one dominant item put it first so it starts at once.
//!
//! `jobs = 1` (or a single job) bypasses the pool entirely and runs the
//! closure in the caller's thread — the old sequential path, bit for
//! bit, with zero thread overhead.
//!
//! ## Job-count resolution
//!
//! Figure binaries resolve their worker count with
//! [`take_jobs_arg`] + [`resolve_jobs`]: an explicit `--jobs N` flag
//! wins, then the `STEELWORKS_JOBS` environment variable, then
//! [`std::thread::available_parallelism`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::sync::{Mutex, PoisonError};

/// Environment variable consulted by [`resolve_jobs`] when no explicit
/// job count is given.
pub const JOBS_ENV: &str = "STEELWORKS_JOBS";

/// Run `f` over `items` on a fixed pool of at most `jobs` workers and
/// return the results **in input order**.
///
/// Workers claim items in input order from a shared queue, each taking
/// the next one as soon as it finishes its last, so items start in
/// input order and a long item never holds back the rest. Results are
/// stored by input index, so the output does not depend on which
/// worker ran what. With `jobs <= 1` or fewer than two items the pool
/// is bypassed and everything runs sequentially in the caller's thread.
/// A panic in any job propagates to the caller, as it would
/// sequentially.
pub fn run<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n_items = items.len();
    let workers = jobs.max(1).min(n_items);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let queue = Mutex::new(items.into_iter().enumerate());
    let (f, queue) = (&f, &queue);
    let mut slots: Vec<Option<R>> = (0..n_items).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    while let Some((i, item)) = claim(queue) {
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(pairs) => {
                    for (i, r) in pairs {
                        slots[i] = Some(r);
                    }
                }
                // Re-raise the worker's panic in the caller, matching
                // the sequential path's behaviour.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(r) => r,
            // steelcheck: allow(panic-reachable): every slot is filled before the workers join
            None => unreachable!("job {i} produced no result"),
        })
        .collect()
}

/// Take the next `(index, item)` off the shared queue. The guard lives
/// only for this call, so no worker holds the lock while it runs a job.
/// A poisoned lock is still usable: a panicking job never holds it.
fn claim<I: Iterator>(queue: &Mutex<I>) -> Option<I::Item> {
    queue.lock().unwrap_or_else(PoisonError::into_inner).next()
}

/// Extract a `--jobs N` (or `--jobs=N`) flag from a CLI argument list,
/// removing the consumed tokens so positional parsing is unaffected.
///
/// Returns `None` when the flag is absent; a malformed value is
/// reported on stderr and treated as absent rather than aborting a
/// figure run.
pub fn take_jobs_arg(args: &mut Vec<String>) -> Option<usize> {
    let mut found = None;
    let mut i = 0;
    while i < args.len() {
        let (hit, extra) = if args[i] == "--jobs" {
            (args.get(i + 1).cloned(), true)
        } else if let Some(v) = args[i].strip_prefix("--jobs=") {
            (Some(v.to_string()), false)
        } else {
            i += 1;
            continue;
        };
        let end = (i + 1 + usize::from(extra)).min(args.len());
        args.drain(i..end);
        match hit.as_deref().map(str::parse::<usize>) {
            Some(Ok(n)) if n >= 1 => found = Some(n),
            _ => eprintln!(
                "steelpar: ignoring malformed --jobs value {:?} (want an integer >= 1)",
                hit.unwrap_or_default()
            ),
        }
    }
    found
}

/// Resolve the worker count: an explicit value (e.g. from
/// [`take_jobs_arg`]) wins, then the `STEELWORKS_JOBS` environment
/// variable, then the machine's available parallelism.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Ok(v) = std::env::var(JOBS_ENV) {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!("steelpar: ignoring malformed {JOBS_ENV}={v:?} (want an integer >= 1)"),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn preserves_input_order_sequentially() {
        let out = run(1, (0..17).collect(), |x: u64| x * x);
        assert_eq!(out, (0..17).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn preserves_input_order_in_parallel() {
        for jobs in [2, 3, 4, 7, 32] {
            let out = run(jobs, (0..23).collect(), |x: u64| x * 10);
            assert_eq!(out, (0..23).map(|x| x * 10).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn order_survives_adversarial_completion_times() {
        // Early jobs sleep the longest, so completion order is the
        // exact reverse of input order — results must still come back
        // in input order.
        let out = run(4, (0..12).collect(), |i: u64| {
            std::thread::sleep(Duration::from_millis((12 - i) * 3));
            i
        });
        assert_eq!(out, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn long_head_item_does_not_hold_back_the_rest() {
        // Item 0 waits for the last item's signal. Under static stride
        // at 2 workers the last of 5 items is queued behind item 0 on
        // worker 0, so the wait would time out; with claiming, worker 1
        // runs items 1..=4 while item 0 waits.
        enum Job {
            Wait(std::sync::mpsc::Receiver<()>),
            Pass,
            Signal(std::sync::mpsc::Sender<()>),
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let mut items = vec![Job::Wait(rx), Job::Pass, Job::Pass, Job::Pass];
        items.push(Job::Signal(tx));
        let out = run(2, items, |job| match job {
            Job::Wait(rx) => rx.recv_timeout(Duration::from_secs(10)).is_ok(),
            Job::Pass => true,
            Job::Signal(tx) => tx.send(()).is_ok(),
        });
        assert_eq!(out, vec![true; 5]);
    }

    #[test]
    fn empty_and_single_inputs() {
        let out: Vec<u32> = run(8, Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
        let out = run(8, vec![41], |x: u32| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = run(64, (0..3).collect(), |x: u64| x + 100);
        assert_eq!(out, vec![100, 101, 102]);
    }

    #[test]
    fn borrows_from_caller_scope() {
        // Non-'static captures must work (scoped threads).
        let base = vec![10u64, 20, 30];
        let out = run(2, (0..3).collect(), |i: usize| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    #[should_panic(expected = "job says no")]
    fn worker_panic_propagates() {
        let _ = run(3, (0..6).collect(), |x: u64| {
            if x == 4 {
                panic!("job says no");
            }
            x
        });
    }

    #[test]
    fn take_jobs_arg_variants() {
        let mut a: Vec<String> = ["10000", "--jobs", "4"].iter().map(|s| s.to_string()).collect();
        assert_eq!(take_jobs_arg(&mut a), Some(4));
        assert_eq!(a, vec!["10000"]);

        let mut a: Vec<String> = ["--jobs=2", "dir"].iter().map(|s| s.to_string()).collect();
        assert_eq!(take_jobs_arg(&mut a), Some(2));
        assert_eq!(a, vec!["dir"]);

        let mut a: Vec<String> = ["--jobs", "zero"].iter().map(|s| s.to_string()).collect();
        assert_eq!(take_jobs_arg(&mut a), None);
        assert!(a.is_empty(), "malformed value is still consumed: {a:?}");

        let mut a: Vec<String> = vec!["--jobs".to_string()];
        assert_eq!(take_jobs_arg(&mut a), None, "trailing flag with no value");
        assert!(a.is_empty());

        let mut a: Vec<String> = vec!["plain".to_string()];
        assert_eq!(take_jobs_arg(&mut a), None);
        assert_eq!(a, vec!["plain"]);
    }

    #[test]
    fn resolve_jobs_precedence() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(Some(0)), 1, "explicit 0 clamps to 1");
        // Env / auto paths exercised without asserting machine-specific
        // values: the result is always at least one worker.
        assert!(resolve_jobs(None) >= 1);
    }
}
