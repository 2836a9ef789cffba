//! CFG/dataflow rules over per-function control flow (rules 11–13).
//!
//! Layer 4 combines the per-function graphs of [`crate::cfg`], the
//! fixpoint framework of [`crate::flow`], and the workspace call graph:
//!
//! - **R11 `lock-discipline`** — a forward held-lock dataflow runs in
//!   every function, held sets propagate along call edges to an
//!   interprocedural fixpoint, and two properties are demanded: the
//!   workspace-wide lock-*order* graph (lock A held while acquiring
//!   lock B ⇒ edge A→B) stays acyclic, and no lock is held across a
//!   blocking call (`JoinHandle::join`, channel `recv`, `accept`,
//!   `TcpStream` I/O). Blocking findings carry the caller chain that
//!   smuggled the lock in.
//! - **R12 `hot-path-alloc`** — allocation-shaped calls (`Vec::new`,
//!   `with_capacity`, `clone`, `collect`, `to_vec`, `format!`, …)
//!   inside loops of functions reachable from the simulator's `run*`
//!   methods, the event/arena/pool internals, or xdpsim's `exec_*`
//!   compiled paths. It flags a call only at loop depth > 0 inside a
//!   reachable function, so it cannot see allocations a device
//!   callback (`on_frame`, `on_timer`) makes once per event: the
//!   per-event loop lives in the simulator, the caller. Those are
//!   pinned by a counting-allocator test instead
//!   (`crates/core/tests/alloc_budget.rs`).
//! - **R13 `float-accum-order`** — f64 compound accumulations (and
//!   `.sum::<f64>()`/float `fold`s) in loops reachable from a figure
//!   binary or the cost-accounting layer. The accumulation order is
//!   part of the committed figure bytes, so every site must carry an
//!   inline justification or an entry in the repo-root
//!   `float_accum.allow` inventory — the inventory doubles as the
//!   work-list for re-specifying the cost accumulator (ROADMAP item 2).
//!
//! Everything iterates sorted structures in node-id order, so findings
//! — including rendered lock cycles and caller chains — are
//! byte-deterministic.

use crate::callgraph::CallGraph;
use crate::cfg::{self, Cfg, Event};
use crate::flow;
use crate::parse::CallKind;
use crate::report::{Finding, FlowStep};
use crate::rules::{self, Suppression};
use crate::RustFile;
use std::collections::{BTreeMap, BTreeSet};

/// Method names that block the calling thread when invoked with no
/// arguments (`JoinHandle::join`; the zero-argument filter keeps
/// `Iterator::join`-alikes out).
const BLOCKING_ZERO_ARG_METHODS: &[&str] = &["join"];

/// Method names that block regardless of arity (channel receives,
/// listener accept).
const BLOCKING_METHODS: &[&str] = &["recv", "recv_timeout", "accept"];

/// Type segments whose associated free calls block on the network.
const BLOCKING_PATH_SEGMENTS: &[&str] = &["TcpStream"];

/// Container types whose `new`/`with_capacity` constructors allocate.
const ALLOC_TYPES: &[&str] = &["Vec", "VecDeque", "String", "Box", "BTreeMap", "BTreeSet"];

/// Method names that allocate a fresh owned value.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "collect", "clone"];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Hot-path files whose every function is an R12 entry: the allocation
/// discipline of the event loop, arena, and payload pool is the whole
/// point of those files.
const HOT_FILES: &[&str] = &[
    "crates/netsim/src/event.rs",
    "crates/netsim/src/node.rs",
    "crates/netsim/src/bytes.rs",
];

/// The committed `float_accum.allow` inventory: one reviewed entry per
/// accumulation site, `<file>:<fn>:<lhs>: <why>` per line.
#[derive(Debug, Default)]
pub struct Inventory {
    entries: Vec<InvEntry>,
}

#[derive(Debug)]
struct InvEntry {
    file: String,
    fn_name: String,
    lhs: String,
    line: u32,
    used: bool,
}

/// The inventory's repo-relative path, used as the "file" of findings
/// about the inventory itself.
pub const INVENTORY_FILE: &str = "float_accum.allow";

impl Inventory {
    /// Parse the inventory text. Blank lines and `#` comments are
    /// skipped; a line that does not split into
    /// `<file>:<fn>:<lhs>: <why>` (all four parts non-empty) is a
    /// `bad-directive` finding — a malformed entry that silently
    /// excuses nothing is worse than no entry.
    pub fn parse(text: &str, findings: &mut Vec<Finding>) -> Inventory {
        let mut inv = Inventory::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = (idx + 1) as u32;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut parts = trimmed.splitn(4, ':');
            let (file, fn_name, lhs, why) = (
                parts.next().unwrap_or("").trim(),
                parts.next().unwrap_or("").trim(),
                parts.next().unwrap_or("").trim(),
                parts.next().unwrap_or("").trim(),
            );
            if file.is_empty() || fn_name.is_empty() || lhs.is_empty() || why.is_empty() {
                findings.push(Finding::new(
                    INVENTORY_FILE,
                    line,
                    "bad-directive",
                    "malformed inventory entry; expected `<file>:<fn>:<lhs>: <why>` \
                     with a non-empty justification",
                ));
                continue;
            }
            inv.entries.push(InvEntry {
                // The path into the simulator that R12 sees here is a
                // method-name resolution artifact (`parse` fans out);
                // this runs once at checker startup.
                file: file.to_string(), // steelcheck: allow(hot-path-alloc): startup config parse, not a sim path
                fn_name: fn_name.to_string(), // steelcheck: allow(hot-path-alloc): startup config parse, not a sim path
                lhs: lhs.to_string(), // steelcheck: allow(hot-path-alloc): startup config parse, not a sim path
                line,
                used: false,
            });
        }
        inv
    }

    /// Does an entry cover the accumulation of `lhs` in `fn_name` of
    /// `file`? First match wins and is marked used.
    fn try_excuse(&mut self, file: &str, fn_name: &str, lhs: &str) -> bool {
        for e in &mut self.entries {
            if e.file == file && e.fn_name == fn_name && e.lhs == lhs {
                e.used = true;
                return true;
            }
        }
        false
    }

    /// Flag entries that excused nothing: a stale inventory line claims
    /// an accumulation site that no longer exists, which means the
    /// work-list it feeds (ROADMAP item 2) is out of date.
    pub fn report_unused(&self, findings: &mut Vec<Finding>) {
        for e in &self.entries {
            if !e.used {
                findings.push(Finding::new(
                    INVENTORY_FILE,
                    e.line,
                    "unused-suppression",
                    &format!(
                        "inventory entry `{}:{}:{}` matches no float accumulation site; \
                         remove it (or fix the entry) so the cost-accumulator work-list \
                         stays accurate",
                        e.file, e.fn_name, e.lhs
                    ),
                ));
            }
        }
    }
}

/// Per-node analysis artifacts shared by the three rules.
struct NodeCfgs {
    /// Parallel to `g.nodes`: the function's CFG.
    cfgs: Vec<Cfg>,
}

fn build_cfgs(files: &[RustFile], g: &CallGraph) -> NodeCfgs {
    let float_names: Vec<BTreeSet<String>> =
        files.iter().map(|f| cfg::float_names(&f.lexed)).collect();
    let cfgs = g
        .nodes
        .iter()
        .map(|n| {
            let item = &files[n.file_idx].parsed.fns[n.fn_idx];
            cfg::build(&files[n.file_idx].lexed, item, &float_names[n.file_idx])
        })
        .collect();
    NodeCfgs { cfgs }
}

/// Run rules 11–13. `supps` is parallel to `files`; consulted
/// suppressions are marked used so the unused-suppression audit stays
/// accurate across all analysis layers. `inventory` is the parsed
/// repo-root `float_accum.allow`.
pub fn analyze(
    files: &[RustFile],
    g: &CallGraph,
    supps: &mut [Vec<Suppression>],
    findings: &mut Vec<Finding>,
    inventory: &mut Inventory,
) {
    let cfgs = build_cfgs(files, g);
    rule_lock_discipline(files, g, &cfgs, supps, findings);
    rule_hot_path_alloc(files, g, &cfgs, supps, findings);
    rule_float_accum_order(files, g, &cfgs, supps, findings, inventory);
}

/// Is the finding at `(file_idx, line)` excused by the allowlist or an
/// inline suppression for `rule` (marked used on match)?
fn excused(
    files: &[RustFile],
    supps: &mut [Vec<Suppression>],
    file_idx: usize,
    line: u32,
    rule: &str,
) -> bool {
    rules::allowlisted(&files[file_idx].rel, rule)
        || rules::try_suppress(&mut supps[file_idx], rule, line)
}

// ---------------------------------------------------------------- R11

/// A lock's workspace-global identity: crate-qualified field name.
/// Two `queue` mutexes in different crates stay distinct; two in the
/// same crate unify — a deliberate over-approximation (one spurious
/// order edge costs a justified suppression; splitting identities by
/// type would need inference the token layer cannot do).
fn qualify(crate_key: &str, lock: &str) -> String {
    format!("{crate_key}::{lock}")
}

/// The per-event held-lock states of one function under a given entry
/// state: for every block, the state *before* each event, in event
/// order. Derived from the [`flow::forward`] fixpoint so loop back
/// edges are honored.
fn event_states(
    cfg: &Cfg,
    crate_key: &str,
    entry: &BTreeSet<String>,
) -> Vec<Vec<BTreeSet<String>>> {
    let transfer = |b: usize, input: &BTreeSet<String>| {
        let mut state = input.clone();
        for e in &cfg.blocks[b].events {
            match e {
                Event::Acquire { site } => {
                    state.insert(qualify(crate_key, &cfg.locks[*site].lock));
                }
                Event::Release { site } => {
                    state.remove(&qualify(crate_key, &cfg.locks[*site].lock));
                }
                _ => {}
            }
        }
        state
    };
    let entries = flow::forward(cfg, entry.clone(), transfer);
    cfg.blocks
        .iter()
        .enumerate()
        .map(|(b, block)| {
            let mut state = entries[b].clone();
            let mut per_event = Vec::with_capacity(block.events.len());
            for e in &block.events {
                per_event.push(state.clone());
                match e {
                    Event::Acquire { site } => {
                        state.insert(qualify(crate_key, &cfg.locks[*site].lock));
                    }
                    Event::Release { site } => {
                        state.remove(&qualify(crate_key, &cfg.locks[*site].lock));
                    }
                    _ => {}
                }
            }
            per_event
        })
        .collect()
}

/// Is this call a direct blocking site? Returns a label for the
/// diagnostic.
fn blocking_label(call: &crate::parse::Call) -> Option<String> {
    match call.kind {
        CallKind::Method => {
            let name = call.name();
            if BLOCKING_ZERO_ARG_METHODS.contains(&name) && call.args.0 == call.args.1 {
                return Some(format!(".{name}()"));
            }
            if BLOCKING_METHODS.contains(&name) {
                return Some(format!(".{name}(..)"));
            }
            None
        }
        CallKind::Free => {
            if call
                .path
                .iter()
                .any(|seg| BLOCKING_PATH_SEGMENTS.contains(&seg.as_str()))
            {
                return Some(format!("{}(..)", call.path.join("::")));
            }
            None
        }
        CallKind::Macro => None,
    }
}

fn rule_lock_discipline(
    files: &[RustFile],
    g: &CallGraph,
    cfgs: &NodeCfgs,
    supps: &mut [Vec<Suppression>],
    findings: &mut Vec<Finding>,
) {
    // Interprocedural fixpoint: the set of locks that may be held on
    // entry to each function, seeded empty and grown by every call site
    // executed with locks held. `prov` records the first caller that
    // put a node's entry set above empty, giving each finding a
    // deterministic caller chain.
    let n_nodes = g.nodes.len();
    let mut entry_held: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n_nodes];
    let mut prov: Vec<Option<(usize, u32)>> = vec![None; n_nodes];
    let mut worklist: BTreeSet<usize> = (0..n_nodes).collect();
    while let Some(&id) = worklist.iter().next() {
        worklist.remove(&id);
        let n = &g.nodes[id];
        let cfg = &cfgs.cfgs[id];
        if cfg.locks.is_empty() && entry_held[id].is_empty() {
            continue; // nothing to propagate
        }
        let entry = entry_held[id].clone();
        let states = event_states(cfg, &n.crate_key, &entry);
        let item = &files[n.file_idx].parsed.fns[n.fn_idx];
        for (b, block) in cfg.blocks.iter().enumerate() {
            for (ei, e) in block.events.iter().enumerate() {
                let Event::Call { call_idx } = e else { continue };
                let held = &states[b][ei];
                if held.is_empty() {
                    continue;
                }
                let call = &item.calls[*call_idx];
                for &callee in &n.resolved[*call_idx] {
                    let before = entry_held[callee].len();
                    entry_held[callee].extend(held.iter().cloned());
                    if entry_held[callee].len() != before {
                        if prov[callee].is_none() {
                            prov[callee] = Some((id, call.line));
                        }
                        worklist.insert(callee);
                    }
                }
            }
        }
    }

    // Second pass over the converged states: collect lock-order edges
    // and held-across-blocking findings.
    //
    // Order edges: (held L, acquiring M) ⇒ L→M, keyed to the first
    // (node-id, line) acquire site in iteration order. A self edge
    // (re-acquiring a lock already held) is an immediate finding: std
    // mutexes deadlock on relock.
    let mut order: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();
    for id in 0..n_nodes {
        let n = &g.nodes[id];
        let cfg = &cfgs.cfgs[id];
        if cfg.locks.is_empty() && entry_held[id].is_empty() {
            continue;
        }
        let states = event_states(cfg, &n.crate_key, &entry_held[id]);
        let item = &files[n.file_idx].parsed.fns[n.fn_idx];
        for (b, block) in cfg.blocks.iter().enumerate() {
            for (ei, e) in block.events.iter().enumerate() {
                let held = &states[b][ei];
                match e {
                    Event::Acquire { site } => {
                        let m = qualify(&n.crate_key, &cfg.locks[*site].lock);
                        let line = cfg.locks[*site].line;
                        for l in held {
                            if *l == m {
                                if !excused(files, supps, n.file_idx, line, "lock-discipline") {
                                    findings.push(Finding::with_flow(
                                        &n.file,
                                        line,
                                        "lock-discipline",
                                        &format!(
                                            "lock `{m}` acquired while already held; a std \
                                             mutex deadlocks on relock — pass the existing \
                                             guard down instead of re-locking"
                                        ),
                                        caller_flow(g, &prov, id, line),
                                    ));
                                }
                            } else {
                                order
                                    .entry((l.clone(), m.clone()))
                                    .or_insert((id, line));
                            }
                        }
                    }
                    Event::Call { call_idx } => {
                        if held.is_empty() {
                            continue;
                        }
                        let call = &item.calls[*call_idx];
                        let Some(label) = blocking_label(call) else {
                            continue;
                        };
                        if excused(files, supps, n.file_idx, call.line, "lock-discipline") {
                            continue;
                        }
                        let held_list = held.iter().cloned().collect::<Vec<_>>().join("`, `");
                        findings.push(Finding::with_flow(
                            &n.file,
                            call.line,
                            "lock-discipline",
                            &format!(
                                "`{label}` blocks while holding `{held_list}`; every other \
                                 thread needing that lock stalls for the full blocking \
                                 duration — release the guard first (scope it, or \
                                 drop(guard))"
                            ),
                            caller_flow(g, &prov, id, call.line),
                        ));
                    }
                    _ => {}
                }
            }
        }
    }

    // Cycle check over the lock-order graph: for each edge a→b, can b
    // reach a through other edges? Each offending edge gets its own
    // finding at its first acquire site, rendering the full cycle, so
    // an AB/BA inversion is reported at both ends.
    let mut succs: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (a, b) in order.keys() {
        succs.entry(a).or_default().push(b);
    }
    for ((a, b), &(node_id, line)) in &order {
        let Some(path) = lock_path(&succs, b, a) else {
            continue;
        };
        let n = &g.nodes[node_id];
        if excused(files, supps, n.file_idx, line, "lock-discipline") {
            continue;
        }
        let mut cycle: Vec<&str> = vec![a.as_str()];
        cycle.extend(path.iter().map(|s| s.as_str()));
        findings.push(Finding::new(
            &n.file,
            line,
            "lock-discipline",
            &format!(
                "lock-order cycle: `{}` — two threads taking these locks in opposite \
                 orders deadlock; pick one global order and re-nest the critical sections",
                cycle.join("` -> `")
            ),
        ));
    }
}

/// BFS path `from -> .. -> to` over the lock-order graph, inclusive of
/// both ends; `None` when unreachable.
fn lock_path<'a>(
    succs: &BTreeMap<&'a String, Vec<&'a String>>,
    from: &'a String,
    to: &'a String,
) -> Option<Vec<&'a String>> {
    let mut parent: BTreeMap<&String, &String> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    parent.insert(from, from);
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        if u == to {
            let mut path = vec![u];
            let mut cur = u;
            while parent[cur] != cur {
                cur = parent[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &v in succs.get(u).into_iter().flatten() {
            parent.entry(v).or_insert_with(|| {
                queue.push_back(v);
                u
            });
        }
    }
    None
}

/// The caller chain that carried locks into `id`, rendered entry-first
/// as flow steps ending at the finding site itself. Empty provenance
/// (the locks are all local) yields the single final step.
fn caller_flow(
    g: &CallGraph,
    prov: &[Option<(usize, u32)>],
    id: usize,
    line: u32,
) -> Vec<FlowStep> {
    let mut hops: Vec<(usize, u32)> = Vec::new();
    let mut cur = id;
    let mut seen = BTreeSet::new();
    while let Some((caller, call_line)) = prov[cur] {
        if !seen.insert(caller) {
            break; // provenance loop (mutual recursion): stop rendering
        }
        hops.push((caller, call_line));
        cur = caller;
    }
    hops.reverse();
    let mut flow: Vec<FlowStep> = hops
        .iter()
        .map(|&(caller, call_line)| {
            let node = &g.nodes[caller];
            FlowStep::new(&node.file, call_line, &node.qual)
        })
        .collect();
    let node = &g.nodes[id];
    flow.push(FlowStep::new(&node.file, line, &node.qual));
    if flow.len() == 1 {
        Vec::new() // a single local step adds nothing over file:line
    } else {
        flow
    }
}

// ---------------------------------------------------------------- R12

/// Is this call allocation-shaped? Returns a display label.
fn alloc_label(call: &crate::parse::Call) -> Option<String> {
    match call.kind {
        CallKind::Free => {
            let name = call.name();
            if (name == "new" || name == "with_capacity")
                && call.path.len() >= 2
                && ALLOC_TYPES.contains(&call.path[call.path.len() - 2].as_str())
            {
                return Some(format!("{}(..)", call.path.join("::")));
            }
            None
        }
        CallKind::Method => {
            let name = call.name();
            if ALLOC_METHODS.contains(&name) {
                return Some(format!(".{name}()"));
            }
            None
        }
        CallKind::Macro => {
            let name = call.name();
            if ALLOC_MACROS.contains(&name) {
                return Some(format!("{name}!(..)"));
            }
            None
        }
    }
}

fn rule_hot_path_alloc(
    files: &[RustFile],
    g: &CallGraph,
    cfgs: &NodeCfgs,
    supps: &mut [Vec<Suppression>],
    findings: &mut Vec<Finding>,
) {
    let mut entries = g.select(|n| {
        (matches!(n.self_ty.as_deref(), Some("Sim") | Some("Simulator"))
            && n.name.starts_with("run"))
            || HOT_FILES.contains(&n.file.as_str())
            || (n.file.starts_with("crates/xdpsim/") && n.name.starts_with("exec_"))
    });
    entries.sort_unstable();
    entries.dedup();
    let parent = g.reach(&entries);
    for n in &g.nodes {
        if parent[n.id].is_none() {
            continue;
        }
        let cfg = &cfgs.cfgs[n.id];
        let item = &files[n.file_idx].parsed.fns[n.fn_idx];
        for block in &cfg.blocks {
            if block.loop_depth == 0 {
                continue;
            }
            for e in &block.events {
                let Event::Call { call_idx } = e else { continue };
                let call = &item.calls[*call_idx];
                let Some(label) = alloc_label(call) else {
                    continue;
                };
                if excused(files, supps, n.file_idx, call.line, "hot-path-alloc") {
                    continue;
                }
                findings.push(Finding::with_flow(
                    &n.file,
                    call.line,
                    "hot-path-alloc",
                    &format!(
                        "`{label}` allocates inside a loop on a simulation hot path; \
                         hoist it out of the loop or reuse a pooled buffer — the \
                         event-loop rearchitecture exists to keep allocation off the \
                         per-event path"
                    ),
                    g.flow_to(&parent, n.id),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- R13

fn rule_float_accum_order(
    files: &[RustFile],
    g: &CallGraph,
    cfgs: &NodeCfgs,
    supps: &mut [Vec<Suppression>],
    findings: &mut Vec<Finding>,
    inventory: &mut Inventory,
) {
    let mut entries = g.select(|n| {
        (n.name == "main" && n.file.starts_with("crates/bench/src/bin/"))
            || n.file == "crates/xdpsim/src/cost.rs"
    });
    entries.sort_unstable();
    entries.dedup();
    let parent = g.reach(&entries);

    // "Loopy" nodes: called (transitively) from inside *any*
    // function's loop — the caller need not itself be on an entry
    // path, because the entry cone is judged per flagged node below.
    // An accumulation in a loopy node runs per iteration even though
    // it is not lexically inside a loop — `ExecCost::charge`'s
    // `self.ns += ns` is the canonical case.
    let mut loop_callees: Vec<usize> = Vec::new();
    for n in &g.nodes {
        let cfg = &cfgs.cfgs[n.id];
        for block in &cfg.blocks {
            if block.loop_depth == 0 {
                continue;
            }
            for e in &block.events {
                if let Event::Call { call_idx } = e {
                    loop_callees.extend(n.resolved[*call_idx].iter().copied());
                }
            }
        }
    }
    loop_callees.sort_unstable();
    loop_callees.dedup();
    let loopy_parent = g.reach(&loop_callees);

    for n in &g.nodes {
        if parent[n.id].is_none() {
            continue;
        }
        let loopy = loopy_parent[n.id].is_some();
        let cfg = &cfgs.cfgs[n.id];
        let item = &files[n.file_idx].parsed.fns[n.fn_idx];
        // (line, lhs-or-method label) sites to judge, in block order.
        let mut sites: Vec<(u32, String)> = Vec::new();
        for block in &cfg.blocks {
            let in_loop = block.loop_depth >= 1 || loopy;
            if !in_loop {
                continue;
            }
            for e in &block.events {
                match e {
                    Event::FloatAccum { line, lhs } => sites.push((*line, lhs.clone())),
                    Event::Call { call_idx } => {
                        let call = &item.calls[*call_idx];
                        if let Some(label) = float_fold_label(files, n.file_idx, call) {
                            sites.push((call.line, label));
                        }
                    }
                    _ => {}
                }
            }
        }
        sites.sort();
        sites.dedup();
        for (line, lhs) in sites {
            if inventory.try_excuse(&n.file, &n.name, &lhs) {
                continue;
            }
            if excused(files, supps, n.file_idx, line, "float-accum-order") {
                continue;
            }
            findings.push(Finding::with_flow(
                &n.file,
                line,
                "float-accum-order",
                &format!(
                    "f64 accumulation `{lhs}` runs per-iteration on a figure/cost path; \
                     its order is part of the committed figure bytes — justify it inline \
                     or add `{}:{}:{lhs}: <why>` to {INVENTORY_FILE}",
                    n.file, n.name
                ),
                g.flow_to(&parent, n.id),
            ));
        }
    }
}

/// Is this call a float-typed `sum`/`fold`? The turbofish tokens sit
/// between the method name and the argument span (`sum::<f64>()`), the
/// fold's float evidence inside the argument span.
fn float_fold_label(
    files: &[RustFile],
    file_idx: usize,
    call: &crate::parse::Call,
) -> Option<String> {
    if call.kind != CallKind::Method {
        return None;
    }
    let name = call.name();
    if name != "sum" && name != "fold" {
        return None;
    }
    let toks = &files[file_idx].lexed.tokens;
    let (scan_lo, scan_hi) = if name == "sum" {
        (call.name_idx, call.args.0)
    } else {
        (call.args.0, call.args.1)
    };
    let floaty = toks[scan_lo..scan_hi.min(toks.len())]
        .iter()
        .any(|t| {
            t.is_ident("f64")
                || t.is_ident("f32")
                || t.kind == crate::lexer::TokKind::Float
        });
    if floaty {
        Some(name.to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse;
    use crate::walk::classify;

    fn file(rel: &str, src: &str) -> RustFile {
        let lexed = lex(src);
        let parsed = parse::parse(&lexed);
        RustFile {
            rel: rel.to_string(),
            class: classify(rel),
            lexed,
            parsed,
        }
    }

    fn run_flow(files: &[RustFile]) -> Vec<Finding> {
        let g = crate::callgraph::build(files);
        let mut supps: Vec<Vec<Suppression>> = files.iter().map(|_| Vec::new()).collect();
        let mut findings = Vec::new();
        let mut inv = Inventory::default();
        analyze(files, &g, &mut supps, &mut findings, &mut inv);
        findings.sort();
        findings
    }

    #[test]
    fn opposite_lock_orders_are_a_cycle() {
        let files = vec![file(
            "crates/steelpar/src/lib.rs",
            r#"
            pub fn ab() {
                let a = self.alpha.lock();
                let b = self.beta.lock();
                use_both(&a, &b);
            }
            pub fn ba() {
                let b = self.beta.lock();
                let a = self.alpha.lock();
                use_both(&a, &b);
            }
            "#,
        )];
        let findings = run_flow(&files);
        let cycles: Vec<_> = findings
            .iter()
            .filter(|f| f.message.contains("lock-order cycle"))
            .collect();
        assert_eq!(cycles.len(), 2, "both inverted edges report: {findings:?}");
        assert!(cycles[0].message.contains("steelpar::alpha"));
        assert!(cycles[0].message.contains("steelpar::beta"));
    }

    #[test]
    fn lock_held_across_join_reports_with_caller_chain() {
        let files = vec![file(
            "crates/steelpar/src/lib.rs",
            r#"
            pub fn outer() {
                let g = self.results.lock();
                finish(&g);
            }
            pub fn finish(g: &G) {
                handle.join();
            }
            "#,
        )];
        let findings = run_flow(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "lock-discipline");
        assert!(f.message.contains("steelpar::results"), "{}", f.message);
        assert_eq!(f.flow.len(), 2, "caller chain outer -> finish: {f:?}");
        assert!(f.flow[0].label.contains("outer"));
        assert!(f.flow[1].label.contains("finish"));
    }

    #[test]
    fn scoped_guard_released_before_join_is_clean() {
        let files = vec![file(
            "crates/steelpar/src/lib.rs",
            r#"
            pub fn f() {
                {
                    let g = self.results.lock();
                    g.push(1);
                }
                handle.join();
            }
            "#,
        )];
        assert!(run_flow(&files).is_empty());
    }

    #[test]
    fn alloc_in_sim_run_loop_is_flagged() {
        let files = vec![file(
            "crates/netsim/src/sim.rs",
            r#"
            impl Simulator {
                pub fn run_until(&mut self) {
                    while self.step() {
                        let scratch = Vec::new();
                        self.absorb(scratch);
                    }
                }
            }
            "#,
        )];
        let findings = run_flow(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "hot-path-alloc");
        assert!(findings[0].message.contains("Vec::new"));
    }

    #[test]
    fn float_accum_in_figure_loop_needs_inventory() {
        let files = vec![file(
            "crates/bench/src/bin/figx.rs",
            r#"
            fn main() {
                let mut total = 0.0;
                for s in samples {
                    total += s as f64;
                }
                emit(total);
            }
            "#,
        )];
        let findings = run_flow(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, "float-accum-order");
        assert!(
            f.message
                .contains("crates/bench/src/bin/figx.rs:main:total:"),
            "message names the inventory key: {}",
            f.message
        );
    }

    #[test]
    fn inventory_entry_excuses_and_stale_entry_is_flagged() {
        let files = vec![file(
            "crates/bench/src/bin/figx.rs",
            "fn main() { let mut t = 0.0; for s in xs { t += s as f64; } }",
        )];
        let g = crate::callgraph::build(&files);
        let mut supps: Vec<Vec<Suppression>> = vec![Vec::new()];
        let mut findings = Vec::new();
        let mut inv = Inventory::parse(
            "# reviewed sites\n\
             crates/bench/src/bin/figx.rs:main:t: sweep order is spec'd ascending\n\
             crates/gone.rs:nobody:x: stale\n",
            &mut findings,
        );
        analyze(&files, &g, &mut supps, &mut findings, &mut inv);
        inv.report_unused(&mut findings);
        findings.sort();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "unused-suppression");
        assert_eq!(findings[0].file, INVENTORY_FILE);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn malformed_inventory_line_is_a_bad_directive() {
        let mut findings = Vec::new();
        let inv = Inventory::parse("no-colons-here\n", &mut findings);
        assert!(inv.entries.is_empty());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "bad-directive");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn charge_shaped_accum_is_caught_via_loopy_reach() {
        // `self.ns += ns` is not lexically in a loop, but `charge` is
        // called from the exec loop — the loopy extension must catch it.
        let files = vec![
            file(
                "crates/xdpsim/src/cost.rs",
                "impl ExecCost { pub fn charge(&mut self, ns: f64) { self.ns += ns; } }",
            ),
            file(
                "crates/xdpsim/src/lower.rs",
                r#"
                pub fn exec_lowered(cost: &mut ExecCost) {
                    for op in ops {
                        cost.charge(op.ns());
                    }
                }
                "#,
            ),
        ];
        let findings = run_flow(&files);
        let accum: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "float-accum-order")
            .collect();
        assert_eq!(accum.len(), 1, "{findings:?}");
        assert!(accum[0].message.contains("self.ns"));
        assert_eq!(accum[0].file, "crates/xdpsim/src/cost.rs");
    }
}
