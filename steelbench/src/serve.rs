//! steelserve over loopback: an in-process server with its default
//! configuration (plus hit-path cross-checks), and the load generator
//! that drives it.
//!
//! The load generator runs three phases over keep-alive connections:
//!
//! 1. **sequential** — hits one at a time on one connection, a closed
//!    loop of one client, each timed from when it was sent;
//! 2. **misses** — fresh specs at a low fixed rate on a second
//!    connection, so a slow miss never blocks a hit on the client side,
//!    while hits arrive open loop at a fixed rate on the first and share
//!    CPU and locks with them;
//! 3. **pipelined** — hits only, many in flight on one connection, for
//!    the saturated hit rate.
//!
//! Hit latency is taken in phase 1 only. On a 2-vCPU host, concurrent
//! misses — even 1 ms ones — moved the hit p90 by up to 14x from one
//! run to the next, so the hit latencies would not compare across runs;
//! the misses' own latency still reflects hit traffic. A miss is timed
//! from when it was sent: it is the service time of one scenario run.
//!
//! Phase 1 is a closed loop, not an open loop at a fixed rate timed
//! from when each hit was due. At 2,000 hits/s both vCPUs sat idle
//! between hits, and every hit paid for waking them. On a VM that cost
//! follows the host's load: over ten runs of the same code the p50's
//! quartiles spread by 57% of its median. Sent back to back, a hit finds
//! the server's thread blocked for only microseconds, and ten runs
//! spread by about 10%.

use crate::clock::{median_of, nearest_rank, Stopwatch};
use crate::report::Outcome;
use std::collections::BTreeMap;
use std::io::{BufReader, Write as _};
use std::path::PathBuf;
// steelcheck: allow(network-outside-serve): the load generator speaks HTTP to the server under test
use std::net::TcpStream;
use steelserve::http::{header, read_response, Client, Response};
use steelserve::json::Value;
use steelserve::server::{bind, ServerConfig};
use steelworks_netsim::rng::SimRng;

/// Re-execute every Nth cache hit and byte-compare it. A re-execution
/// runs on the hit path and stalls its connection for a whole scenario,
/// so the cadence is kept low enough for the hit rate to stay steady.
pub const CROSSCHECK_EVERY: u64 = 8_192;

/// Fresh-spec misses per second during the miss phase.
pub const MISS_RATE: f64 = 20.0;

/// Open-loop hit rate beside the misses, requests per second. About a
/// tenth of what one connection sustains on a 2-vCPU host (~18k req/s),
/// so a burst of host steal does not leave a backlog behind it.
pub const OPEN_RATE: f64 = 2_000.0;

/// Requests per keep-alive connection before the load generator opens
/// a fresh one. Each connection gets its own server thread, and where
/// the scheduler places that thread relative to the client moved hit
/// latency and rate between runs by 10-30%; reconnecting often averages
/// over placements inside every run.
const REQUESTS_PER_CONNECTION: u64 = 2_000;

/// Failure lines kept per phase; the count is always exact.
const MAX_FAILURE_LINES: usize = 8;

/// A running in-process server and the scratch cache it owns.
pub struct Server {
    addr: String,
    // steelcheck: allow(thread-outside-exec): the server under test runs on its own thread
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    cache_dir: PathBuf,
}

impl Server {
    /// Bind an ephemeral loopback port over a fresh cache directory and
    /// start serving on a background thread.
    pub fn launch(cache_dir: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cfg = ServerConfig {
            crosscheck_every: CROSSCHECK_EVERY,
            cache_dir: cache_dir.clone(),
            ..ServerConfig::default()
        };
        let server = bind(&cfg).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
        let addr = server.local_addr().to_string();
        // steelcheck: allow(thread-outside-exec): the server under test runs beside its load generator
        let thread = std::thread::spawn(move || server.serve_forever());
        Ok(Server {
            addr,
            thread,
            cache_dir,
        })
    }

    /// `host:port` the server listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The integer counters of `GET /stats`.
    pub fn fetch_stats(&self) -> Result<BTreeMap<String, i64>, String> {
        let resp = Client::connect(&self.addr)
            .request("GET", "/stats", b"")
            .map_err(|e| format!("GET /stats: {e}"))?;
        let text = String::from_utf8_lossy(&resp.body);
        let value = Value::parse(&text).map_err(|e| format!("GET /stats: {e}"))?;
        let obj = value.as_obj().ok_or("GET /stats: not an object")?;
        Ok(obj
            .iter()
            .filter_map(|(k, v)| v.as_int().map(|n| (k.clone(), n)))
            .collect())
    }

    /// Shut the server down, wait for its thread and drop its cache.
    pub fn stop_and_join(self) -> Result<(), String> {
        let sent = Client::connect(&self.addr).request("POST", "/shutdown", b"");
        let joined = self.thread.join();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        sent.map_err(|e| format!("POST /shutdown: {e}"))?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server loop failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// POST one spec; returns the cache disposition and the body, or a
/// description of what went wrong (transport error or non-200).
pub fn post(client: &mut Client, body: &str) -> Result<(String, Vec<u8>), String> {
    let resp = client
        .request("POST", "/run", body.as_bytes())
        .map_err(|e| format!("POST /run: {e}"))?;
    reply_of(resp)
}

/// POST every spec once against a cold cache: each must execute
/// (`miss`). Returns the bodies, index-aligned with `bodies`.
pub fn fill_warm(addr: &str, bodies: &[String], o: &mut Outcome) -> Vec<Vec<u8>> {
    let mut client = Client::connect(addr);
    bodies
        .iter()
        .enumerate()
        .map(|(i, body)| match post(&mut client, body) {
            Ok((disposition, artifact)) => {
                o.tally(disposition == "miss", || {
                    format!("warm fill of hit spec {i} answered `{disposition}`, want miss")
                });
                artifact
            }
            Err(e) => {
                o.tally(false, || format!("warm fill of hit spec {i}: {e}"));
                Vec::new()
            }
        })
        .collect()
}

/// How long each load phase runs, seconds.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Sequential hits, timed.
    pub sequential_s: f64,
    /// Fixed-rate misses beside untimed open-loop hits.
    pub miss_s: f64,
    /// Saturating pipelined hits on one connection.
    pub pipelined_s: f64,
}

impl Plan {
    /// Split `total` seconds across the phases.
    pub fn over(total: f64) -> Plan {
        Plan {
            sequential_s: 0.35 * total,
            miss_s: 0.3 * total,
            pipelined_s: 0.35 * total,
        }
    }
}

/// What the load generator measured.
#[derive(Debug, Default)]
pub struct Load {
    /// Sequential hit latencies from when each was sent, µs.
    pub hit_us: Vec<f64>,
    /// How late each open-loop hit beside the misses went out, µs.
    pub lag_us: Vec<f64>,
    /// Miss latencies from when each was sent, ms.
    pub miss_ms: Vec<f64>,
    /// Miss bodies by index into the miss list, for verification.
    pub miss_bodies: Vec<(usize, Vec<u8>)>,
    /// Fresh specs sent so far, answered or not; the next miss phase
    /// starts after them.
    pub misses_sent: usize,
    /// Completed hits per second of every whole connection segment of
    /// the pipelined phase.
    pub hit_rates: Vec<f64>,
}

impl Load {
    /// Completed hits per second in the pipelined phase: the median over
    /// connection segments.
    pub fn hit_rps(&self) -> f64 {
        median_of(&self.hit_rates).unwrap_or(f64::NAN)
    }

    /// The `q` quantile of hit latency, µs: taken within every
    /// connection segment of the sequential phase, then the median over
    /// segments, so a few bad stretches (a cross-check, a scheduler
    /// hiccup) move it no more than any other quarter second.
    pub fn hit_quantile_us(&self, q: f64) -> f64 {
        let per_segment: Vec<f64> = self
            .hit_us
            .chunks(REQUESTS_PER_CONNECTION as usize)
            .filter_map(|seg| nearest_rank(&mut seg.to_vec(), q))
            .collect();
        median_of(&per_segment).unwrap_or(f64::NAN)
    }
}

/// Per-thread counts, merged into the outcome after the join.
#[derive(Default)]
struct Tally {
    ok: u64,
    failed: u64,
    lines: Vec<String>,
}

impl Tally {
    fn note_failure(&mut self, line: String) {
        self.failed += 1;
        if self.lines.len() < MAX_FAILURE_LINES {
            self.lines.push(line);
        }
    }

    /// Check one hit reply against the warm body.
    fn check_hit(&mut self, reply: Result<(String, Vec<u8>), String>, expected: &[u8], idx: usize) {
        match reply {
            Ok((d, body)) if d == "hit" && body == expected => self.ok += 1,
            Ok((d, body)) if d == "hit" => self.note_failure(format!(
                "hit spec {idx}: body of {} bytes differs from the warm artifact",
                body.len()
            )),
            Ok((d, _)) => self.note_failure(format!("hit spec {idx} answered `{d}`, want hit")),
            Err(e) => self.note_failure(format!("hit spec {idx}: {e}")),
        }
    }

    fn merge_into(self, o: &mut Outcome) {
        o.passed(self.ok);
        let mut lines = self.lines.into_iter();
        for _ in 0..self.failed {
            let line = lines
                .next()
                .unwrap_or_else(|| "further failure (line elided)".into());
            o.tally(false, || line);
        }
    }
}

/// Hits in flight on the pipelined connection. Pipelining keeps the
/// server's connection thread busy back to back, so the rate measures
/// the hit path rather than how fast two vCPUs wake each other.
const PIPELINE: u64 = 16;

/// Turn a response into the disposition and body, or a description of
/// what went wrong.
fn reply_of(resp: Response) -> Result<(String, Vec<u8>), String> {
    if resp.status != 200 {
        return Err(format!(
            "POST /run returned {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body).trim_end()
        ));
    }
    let disposition = header(&resp.headers, "X-Steelserve-Cache")
        .unwrap_or("?")
        .to_string();
    Ok((disposition, resp.body))
}

/// Closed loop of pipelined hits on one connection until `until_s` on
/// `clock`. Returns the completed-hit rate of every whole connection
/// segment, requests per second.
fn pipelined_loop(
    addr: &str,
    hits: &[(String, Vec<u8>)],
    rng: &mut SimRng,
    clock: Stopwatch,
    until_s: f64,
) -> (Vec<f64>, Tally) {
    let mut tally = Tally::default();
    let mut rates = Vec::new();
    // steelcheck: allow(network-outside-serve): the load generator speaks HTTP to the server under test
    let mut conn: Option<BufReader<TcpStream>> = None;
    let mut segment = Stopwatch::started();
    let mut done = 0u64;
    let mut wire = Vec::new();
    let mut picks = Vec::with_capacity(PIPELINE as usize);
    while clock.secs() < until_s {
        let reader = match conn.as_mut() {
            Some(reader) => reader,
            // steelcheck: allow(network-outside-serve): the load generator speaks HTTP to the server under test
            None => match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    conn.insert(BufReader::new(stream))
                }
                Err(e) => {
                    tally.note_failure(format!("connect {addr}: {e}"));
                    break;
                }
            },
        };
        wire.clear();
        picks.clear();
        for _ in 0..PIPELINE {
            let idx = rng.below(hits.len() as u64) as usize;
            let body = &hits[idx].0;
            let _ = write!(
                wire,
                "POST /run HTTP/1.1\r\nHost: steelbench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            picks.push(idx);
        }
        if let Err(e) = reader.get_mut().write_all(&wire) {
            tally.note_failure(format!("pipelined POST /run: {e}"));
            conn = None;
            continue;
        }
        for &idx in &picks {
            let reply = read_response(reader)
                .map_err(|e| format!("pipelined POST /run: {e}"))
                .and_then(reply_of);
            tally.check_hit(reply, &hits[idx].1, idx);
        }
        done += PIPELINE;
        if done.is_multiple_of(REQUESTS_PER_CONNECTION) {
            rates.push(REQUESTS_PER_CONNECTION as f64 / segment.secs());
            segment = Stopwatch::started();
            conn = None;
        }
    }
    if rates.is_empty() {
        rates.push(done as f64 / clock.secs().max(1e-9));
    }
    (rates, tally)
}

/// Hits one at a time on one connection until `until_ns` on `clock`.
/// Each hit is checked, and its latency from when it was sent goes into
/// `hit_us`.
fn sequential_loop(
    addr: &str,
    hits: &[(String, Vec<u8>)],
    rng: &mut SimRng,
    clock: Stopwatch,
    until_ns: u64,
    hit_us: &mut Vec<f64>,
) -> Tally {
    let mut client = Client::connect(addr);
    let mut tally = Tally::default();
    for i in 0u64.. {
        if clock.elapsed_nanos() >= until_ns {
            break;
        }
        if i % REQUESTS_PER_CONNECTION == 0 {
            client = Client::connect(addr);
        }
        let idx = rng.below(hits.len() as u64) as usize;
        let (body, expected) = &hits[idx];
        let sent = clock.elapsed_nanos();
        tally.check_hit(post(&mut client, body), expected, idx);
        hit_us.push(clock.elapsed_nanos().saturating_sub(sent) as f64 / 1e3);
    }
    tally
}

/// Open-loop hits at `OPEN_RATE` on one connection until `until_ns`
/// on `clock`. Each hit is checked, and how late it was sent goes into
/// `lag_us`.
fn open_loop(
    addr: &str,
    hits: &[(String, Vec<u8>)],
    rng: &mut SimRng,
    clock: Stopwatch,
    until_ns: u64,
    lag_us: &mut Vec<f64>,
) -> Tally {
    let gap_ns = 1e9 / OPEN_RATE;
    let mut client = Client::connect(addr);
    let mut tally = Tally::default();
    for i in 0u64.. {
        let due = (i as f64 * gap_ns) as u64;
        if due >= until_ns {
            break;
        }
        clock.pace_until(due);
        if i % REQUESTS_PER_CONNECTION == 0 {
            client = Client::connect(addr);
        }
        lag_us.push(clock.elapsed_nanos().saturating_sub(due) as f64 / 1e3);
        let idx = rng.below(hits.len() as u64) as usize;
        let (body, expected) = &hits[idx];
        tally.check_hit(post(&mut client, body), expected, idx);
    }
    tally
}

/// Fresh-spec misses at `MISS_RATE` on one connection, from `first` in
/// `misses` on, until `until_ns` on `clock`: their latencies, bodies and
/// count go into a `Load`, their checks into the `Tally`.
fn miss_loop(
    addr: &str,
    misses: &[String],
    first: usize,
    clock: Stopwatch,
    until_ns: u64,
) -> (Load, Tally) {
    let gap_ns = 1e9 / MISS_RATE;
    let mut client = Client::connect(addr);
    let mut tally = Tally::default();
    let mut load = Load::default();
    for (j, body) in misses.iter().enumerate().skip(first) {
        let due = (load.misses_sent as f64 * gap_ns) as u64;
        if due >= until_ns {
            break;
        }
        clock.pace_until(due);
        load.misses_sent += 1;
        let sent = clock.elapsed_nanos();
        match post(&mut client, body) {
            Ok((d, artifact)) if d == "miss" => {
                load.miss_ms
                    .push(clock.elapsed_nanos().saturating_sub(sent) as f64 / 1e6);
                load.miss_bodies.push((j, artifact));
            }
            Ok((d, _)) => tally.note_failure(format!("fresh spec {j} answered `{d}`, want miss")),
            Err(e) => tally.note_failure(format!("fresh spec {j}: {e}")),
        }
    }
    tally.ok += load.miss_bodies.len() as u64;
    (load, tally)
}

/// Drive the server at `addr` with hits on `hits` (request body and
/// warm artifact) and the fresh misses in `misses` not yet sent, per
/// `plan`. What it measures is added to `load`.
pub fn drive(
    addr: &str,
    hits: &[(String, Vec<u8>)],
    misses: &[String],
    plan: Plan,
    rng: &mut SimRng,
    o: &mut Outcome,
    load: &mut Load,
) {
    if hits.is_empty() {
        o.tally(false, || "no hit specs to drive".into());
        return;
    }

    // 1. Sequential hits only: the hit latencies.
    let mut hit_rng = rng.fork(1);
    sequential_loop(
        addr,
        hits,
        &mut hit_rng,
        Stopwatch::started(),
        (plan.sequential_s * 1e9) as u64,
        &mut load.hit_us,
    )
    .merge_into(o);

    // 2. Misses on their own connection while hits keep arriving at the
    //    open-loop rate: the miss latencies, with misses sharing CPU and
    //    locks with hits.
    let clock = Stopwatch::started();
    let until_ns = (plan.miss_s * 1e9) as u64;
    let first = load.misses_sent;
    // steelcheck: allow(thread-outside-exec): misses travel on their own connection beside the hit loop
    let (missed, hit_tally) = std::thread::scope(|scope| {
        let miss_thread = scope.spawn(move || miss_loop(addr, misses, first, clock, until_ns));
        let tally = open_loop(addr, hits, &mut hit_rng, clock, until_ns, &mut load.lag_us);
        (miss_thread.join(), tally)
    });
    hit_tally.merge_into(o);
    match missed {
        Ok((missed, tally)) => {
            tally.merge_into(o);
            load.miss_ms.extend(missed.miss_ms);
            load.miss_bodies.extend(missed.miss_bodies);
            load.misses_sent += missed.misses_sent;
        }
        Err(_) => o.tally(false, || "miss load thread panicked".into()),
    }

    // 3. Pipelined: the saturated hit rate of one pipelined
    //    connection. (More connections than one put four busy threads on
    //    a 2-vCPU host and moved the rate by a third between runs.)
    let (rates, tally) = pipelined_loop(
        addr,
        hits,
        &mut rng.fork(10),
        Stopwatch::started(),
        plan.pipelined_s,
    );
    tally.merge_into(o);
    load.hit_rates.extend(rates);
}

/// Read `/stats` and fail the run on cross-check failures or errors.
pub fn check_stats(server: &Server, o: &mut Outcome) -> BTreeMap<String, i64> {
    match server.fetch_stats() {
        Ok(stats) => {
            let get = |k: &str| stats.get(k).copied().unwrap_or(-1);
            o.tally(get("crosscheck_failures") == 0, || {
                format!(
                    "/stats crosscheck_failures = {}",
                    get("crosscheck_failures")
                )
            });
            o.tally(get("run_errors") == 0, || {
                format!("/stats run_errors = {}", get("run_errors"))
            });
            stats
        }
        Err(e) => {
            o.tally(false, || e);
            BTreeMap::new()
        }
    }
}
