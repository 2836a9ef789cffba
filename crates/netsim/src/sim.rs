//! The discrete-event simulation engine.
//!
//! [`Simulator`] owns the clock, the event queue, every device, link and
//! tap, and the trace sink. It is strictly single-threaded and
//! deterministic: the same build order + seed produces bit-identical
//! traces on every platform.

use crate::event::{EventKind, EventQueue};
use crate::bytes::Bytes;
use crate::frame::{EthFrame, FrameId, MacAddr};
use crate::link::{Link, LinkId, LinkSpec};
use crate::node::{Action, Ctx, Device, NodeId, PortId};
use crate::rng::SimRng;
use crate::tap::{Tap, TapDir, TapId};
use crate::time::{NanoDur, Nanos};
use crate::trace::{DropReason, TraceEvent, TraceSink};
use crate::bytes::BytesPool;

/// The stand-in left in a recycled arrival box once its frame has been
/// moved out for dispatch. `payload` is an empty buffer the caller
/// owns, so making one never allocates.
fn vacant_frame(payload: &Bytes) -> EthFrame {
    EthFrame {
        id: FrameId(0),
        dst: MacAddr([0; 6]),
        src: MacAddr([0; 6]),
        vlan: None,
        ethertype: 0,
        payload: payload.clone(),
    }
}

/// Flat struct-of-arrays node storage.
///
/// Devices, RNG streams and port tables live in parallel arenas indexed
/// by `NodeId.0`. Port wiring is staged in per-node tables while the
/// world is built (wiring interleaves across nodes, so spans cannot be
/// assigned yet) and frozen into one dense `(links, rates)` table with
/// per-node `(start, len)` spans at simulation start. The dispatch and
/// transmit hot paths then index flat arrays — one cache line for the
/// span, one for the port entry — instead of chasing a per-node heap
/// allocation per lookup.
struct NodeArena {
    devices: Vec<Box<dyn Device>>,
    rngs: Vec<SimRng>,
    /// Per-node staged port tables; drained into the flat table at freeze.
    staged_links: Vec<Vec<Option<LinkId>>>,
    staged_rates: Vec<Vec<Option<u64>>>,
    /// Per-node `(start, len)` into `links`/`rates`; valid once frozen.
    spans: Vec<(u32, u32)>,
    links: Vec<Option<LinkId>>,
    rates: Vec<Option<u64>>,
    frozen: bool,
}

impl NodeArena {
    fn new() -> Self {
        NodeArena {
            devices: Vec::new(),
            rngs: Vec::new(),
            staged_links: Vec::new(),
            staged_rates: Vec::new(),
            spans: Vec::new(),
            links: Vec::new(),
            rates: Vec::new(),
            frozen: false,
        }
    }

    fn len(&self) -> usize {
        self.devices.len()
    }

    fn add(&mut self, device: Box<dyn Device>, rng: SimRng) -> NodeId {
        let id = NodeId(self.devices.len());
        self.devices.push(device);
        self.rngs.push(rng);
        self.staged_links.push(Vec::new());
        self.staged_rates.push(Vec::new());
        id
    }

    fn wire(&mut self, node: NodeId, port: PortId, link: LinkId, rate: u64) {
        assert!(
            !self.frozen,
            "cannot wire port {:?} of node {:?} ({}): topology is frozen once the simulation starts",
            port,
            node,
            self.devices[node.0].name()
        );
        let links = &mut self.staged_links[node.0];
        let rates = &mut self.staged_rates[node.0];
        if links.len() <= port.0 {
            links.resize(port.0 + 1, None);
            rates.resize(port.0 + 1, None);
        }
        assert!(
            links[port.0].is_none(),
            "port {:?} of node {:?} ({}) is already wired",
            port,
            node,
            self.devices[node.0].name()
        );
        links[port.0] = Some(link);
        rates[port.0] = Some(rate);
    }

    /// Flatten the staged per-node tables into the dense span-indexed
    /// layout. Idempotent; called once at simulation start.
    fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        self.frozen = true;
        let total: usize = self.staged_links.iter().map(Vec::len).sum();
        debug_assert!(total <= u32::MAX as usize, "port table index overflow");
        self.spans.reserve(self.devices.len());
        self.links.reserve(total);
        self.rates.reserve(total);
        for n in 0..self.devices.len() {
            let start = self.links.len() as u32;
            self.links.append(&mut self.staged_links[n]);
            self.rates.append(&mut self.staged_rates[n]);
            self.spans.push((start, self.links.len() as u32 - start));
        }
        self.staged_links = Vec::new();
        self.staged_rates = Vec::new();
    }

    /// Link wired to `(node, port)`, if any.
    #[inline]
    fn link_of(&self, node: NodeId, port: PortId) -> Option<LinkId> {
        debug_assert!(self.frozen, "port tables read before freeze");
        let (s, l) = self.spans[node.0];
        if port.0 >= l as usize {
            return None;
        }
        self.links[s as usize + port.0]
    }
}

/// A complete simulated world.
pub struct Simulator {
    now: Nanos,
    queue: EventQueue,
    nodes: NodeArena,
    links: Vec<Link>,
    taps: Vec<Tap>,
    trace: TraceSink,
    rng: SimRng,
    started: bool,
    scratch: Vec<Action>,
    pool: BytesPool,
    /// Emptied `FrameArrival` boxes, refilled by the next transmit so a
    /// steady stream of frames stops allocating one box per hop.
    spare_boxes: Vec<Box<EthFrame>>,
    /// Empty payload for vacated boxes. Each simulator owns its own
    /// instead of cloning `Bytes::new()`'s process-wide buffer: that
    /// refcount would be bumped twice per hop by every worker thread at
    /// once. On a 2-vCPU VM the shared version used about 9% more CPU
    /// time on a two-job `fig4_loops` run (medians of 20 runs each).
    vacant_payload: Bytes,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("taps", &self.taps.len())
            .field("pending_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// A fresh world driven by the given seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: Nanos::ZERO,
            queue: EventQueue::new(),
            nodes: NodeArena::new(),
            links: Vec::new(),
            taps: Vec::new(),
            trace: TraceSink::new(),
            rng: SimRng::seed_from_u64(seed),
            started: false,
            scratch: Vec::new(),
            pool: BytesPool::new(),
            spare_boxes: Vec::new(),
            vacant_payload: Bytes::from(Vec::new()),
        }
    }

    /// The payload buffer pool (e.g. to read hit/miss counters in
    /// tests and capacity planning).
    pub fn pool(&self) -> &BytesPool {
        &self.pool
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Add a device; returns its node id. Each device gets a private
    /// RNG stream forked from the world seed.
    pub fn add_node<D: Device>(&mut self, device: D) -> NodeId {
        let rng = self.rng.fork(self.nodes.len() as u64 + 1);
        self.nodes.add(Box::new(device), rng)
    }

    /// Wire `(a, pa)` to `(b, pb)` with the given link spec. Panics if
    /// either port is already wired — silent rewiring is always a bug.
    pub fn connect(
        &mut self,
        a: NodeId,
        pa: PortId,
        b: NodeId,
        pb: PortId,
        spec: LinkSpec,
    ) -> LinkId {
        let lid = LinkId(self.links.len());
        let rng_a = self.rng.fork(0x4C00 + lid.0 as u64);
        let rng_b = self.rng.fork(0x4D00 + lid.0 as u64);
        let bw = spec.bandwidth_bps;
        self.nodes.wire(a, pa, lid, bw);
        self.nodes.wire(b, pb, lid, bw);
        self.links
            .push(Link::new(spec, (a, pa), (b, pb), rng_a, rng_b));
        lid
    }

    /// Install a tap on a link. Returns a handle to read records later.
    pub fn attach_tap(&mut self, link: LinkId, tap: Tap) -> TapId {
        let id = TapId(self.taps.len());
        self.taps.push(tap);
        self.links[link.0].taps.push(id);
        id
    }

    /// Read a tap's records.
    pub fn tap(&self, id: TapId) -> &Tap {
        &self.taps[id.0]
    }

    /// Mutable tap access (e.g. to clear warm-up records).
    pub fn tap_mut(&mut self, id: TapId) -> &mut Tap {
        &mut self.taps[id.0]
    }

    /// The trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Enable the detailed per-frame trace log.
    pub fn record_events(&mut self, on: bool) {
        self.trace.set_record_events(on);
    }

    /// Borrow a device downcast to its concrete type.
    ///
    /// Panics if the node id is stale or the type does not match — both
    /// are programming errors in experiment code.
    pub fn node_ref<D: Device>(&self, id: NodeId) -> &D {
        (*self.nodes.devices[id.0])
            .as_any()
            .downcast_ref::<D>()
            // steelcheck: allow(unwrap-in-lib): typed-accessor API: wrong D is a caller bug by documented contract
            .expect("node type mismatch")
    }

    /// Mutable variant of [`Simulator::node_ref`].
    pub fn node_mut<D: Device>(&mut self, id: NodeId) -> &mut D {
        (*self.nodes.devices[id.0])
            .as_any_mut()
            .downcast_mut::<D>()
            // steelcheck: allow(unwrap-in-lib): typed-accessor API: wrong D is a caller bug by documented contract
            .expect("node type mismatch")
    }

    /// Schedule an externally-driven timer on a node (e.g. a failure
    /// injection at an absolute scenario time).
    pub fn inject_timer(&mut self, node: NodeId, at: Nanos, token: u64) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, EventKind::Timer { node, token });
    }

    /// Total frames the fault injectors dropped on a link (both dirs).
    pub fn link_drops(&self, link: LinkId) -> u64 {
        let l = &self.links[link.0];
        l.a_to_b.faults.dropped()
            + l.a_to_b.faults.rate_limited()
            + l.b_to_a.faults.dropped()
            + l.b_to_a.faults.rate_limited()
    }

    /// Run until the clock reaches `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: Nanos) {
        self.start_if_needed();
        while let Some(at) = self.queue.peek_time() {
            if at > t {
                break;
            }
            let Some(ev) = self.queue.pop() else { break };
            debug_assert!(ev.at >= self.now, "time ran backwards");
            self.now = ev.at;
            match ev.kind {
                EventKind::FrameArrival { node, port, mut frame } => {
                    self.trace.on_delivered(TraceEvent::Delivered {
                        at: self.now,
                        node,
                        port,
                        frame: frame.id,
                    });
                    let arrived = std::mem::replace(&mut *frame, vacant_frame(&self.vacant_payload));
                    self.spare_boxes.push(frame);
                    self.dispatch_frame(node, port, arrived);
                }
                EventKind::Timer { node, token } => {
                    self.trace.on_timer_fired();
                    self.dispatch_timer(node, token);
                }
            }
        }
        self.now = self.now.max(t);
    }

    /// Run for a further duration.
    pub fn run_for(&mut self, d: NanoDur) {
        self.run_until(self.now + d);
    }

    /// Run until the event queue drains completely.
    pub fn run_to_quiescence(&mut self) {
        self.start_if_needed();
        while let Some(at) = self.queue.peek_time() {
            self.run_until(at);
        }
    }

    /// Pending event count (useful for tests and liveness checks).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Freeze the staged port wiring into the dense span-indexed
        // table before any callback can read it.
        self.nodes.freeze();
        // Pre-size the hot-path scratch from topology size: a steady
        // state carries roughly a few in-flight events per link plus a
        // timer per node, and devices rarely emit more than a handful
        // of actions per callback. Reserving once here moves the
        // doubling reallocations out of the measured event loop.
        self.queue
            .reserve(2 * self.nodes.len() + 8 * self.links.len() + 16);
        if self.scratch.capacity() < 8 {
            self.scratch.reserve(8 - self.scratch.capacity());
        }
        for idx in 0..self.nodes.len() {
            let mut actions = std::mem::take(&mut self.scratch);
            {
                let (s, l) = self.nodes.spans[idx];
                let mut ctx = Ctx::new(
                    self.now,
                    NodeId(idx),
                    &mut self.nodes.rngs[idx],
                    &self.nodes.rates[s as usize..(s + l) as usize],
                    &mut actions,
                    &mut self.pool,
                );
                self.nodes.devices[idx].on_start(&mut ctx);
            }
            self.apply_actions(NodeId(idx), &mut actions);
            self.scratch = actions;
        }
    }

    fn dispatch_frame(&mut self, node: NodeId, port: PortId, frame: EthFrame) {
        let mut actions = std::mem::take(&mut self.scratch);
        {
            let (s, l) = self.nodes.spans[node.0];
            let mut ctx = Ctx::new(
                self.now,
                node,
                &mut self.nodes.rngs[node.0],
                &self.nodes.rates[s as usize..(s + l) as usize],
                &mut actions,
                &mut self.pool,
            );
            self.nodes.devices[node.0].on_frame(&mut ctx, port, frame);
        }
        self.apply_actions(node, &mut actions);
        self.scratch = actions;
    }

    fn dispatch_timer(&mut self, node: NodeId, token: u64) {
        let mut actions = std::mem::take(&mut self.scratch);
        {
            let (s, l) = self.nodes.spans[node.0];
            let mut ctx = Ctx::new(
                self.now,
                node,
                &mut self.nodes.rngs[node.0],
                &self.nodes.rates[s as usize..(s + l) as usize],
                &mut actions,
                &mut self.pool,
            );
            self.nodes.devices[node.0].on_timer(&mut ctx, token);
        }
        self.apply_actions(node, &mut actions);
        self.scratch = actions;
    }

    fn apply_actions(&mut self, node: NodeId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { port, frame } => self.transmit(node, port, frame),
                Action::TimerAt { at, token } => {
                    self.queue.push(at, EventKind::Timer { node, token });
                }
            }
        }
    }

    fn transmit(&mut self, node: NodeId, port: PortId, mut frame: EthFrame) {
        let Some(lid) = self.nodes.link_of(node, port) else {
            self.trace.on_dropped(TraceEvent::Dropped {
                at: self.now,
                link: None,
                frame: frame.id,
                reason: DropReason::UnwiredPort,
            });
            return;
        };
        let link = &mut self.links[lid.0];
        let a_side = link.is_a_side(node, port);
        let prop = link.spec.propagation;
        let ser = link.spec.serialization(frame.wire_bits());
        // steelcheck: allow(unwrap-in-lib): link endpoints were validated when the link was wired
        let dir = link.dir_from(node, port).expect("wiring inconsistent");

        let start = self.now.max(dir.tx_free_at);
        let depart = start + ser;
        dir.tx_free_at = depart;
        dir.frames_sent += 1;

        self.trace.on_sent(TraceEvent::Sent {
            at: start,
            node,
            port,
            link: lid,
            frame: frame.id,
            wire_len: frame.wire_len(),
        });

        // Fate of the frame over this hop.
        let verdict = if dir.faults.is_transparent() {
            crate::fault::FaultVerdict::Deliver
        } else {
            dir.faults.judge(start, frame.wire_len(), &mut dir.rng)
        };

        use crate::fault::FaultVerdict as V;
        let mut extra = NanoDur::ZERO;
        let mut duplicate = false;
        match verdict {
            V::Drop => {
                self.trace.on_dropped(TraceEvent::Dropped {
                    at: depart,
                    link: Some(lid),
                    frame: frame.id,
                    reason: DropReason::Fault,
                });
                return;
            }
            V::Corrupt => {
                corrupt_payload(&mut frame, &mut dir.rng, &mut self.pool);
                self.trace.on_corrupted(TraceEvent::Corrupted {
                    at: depart,
                    link: lid,
                    frame: frame.id,
                });
            }
            V::Delay(d) => extra = d,
            V::Duplicate => {
                duplicate = true;
                self.trace.on_duplicated();
            }
            V::Deliver => {}
        }

        // Taps see the (possibly corrupted) frame as it passes them.
        // Indexed re-borrow per iteration instead of cloning the tap id
        // list: links and taps live in disjoint arenas, so each pass
        // borrows `self.links` immutably only long enough to read one
        // id, then mutates `self.taps` — no per-frame allocation.
        let tap_dir = if a_side { TapDir::AToB } else { TapDir::BToA };
        for ti in 0..self.links[lid.0].taps.len() {
            let tid = self.links[lid.0].taps[ti];
            let tap = &mut self.taps[tid.0];
            let frac = if a_side {
                tap.position
            } else {
                1.0 - tap.position
            };
            let at_tap = depart + prop.mul_f64(frac);
            tap.observe(at_tap, tap_dir, &frame);
        }

        let link = &self.links[lid.0];
        let dir = if a_side { &link.a_to_b } else { &link.b_to_a };
        let arrival = depart + prop + extra;
        let dst_node = dir.dst_node;
        let dst_port = dir.dst_port;
        if duplicate {
            let copy = self.boxed(frame.clone());
            self.queue.push(
                arrival,
                EventKind::FrameArrival {
                    node: dst_node,
                    port: dst_port,
                    frame: copy,
                },
            );
        }
        let frame = self.boxed(frame);
        self.queue.push(
            arrival,
            EventKind::FrameArrival {
                node: dst_node,
                port: dst_port,
                frame,
            },
        );
    }

    /// Box a frame for the event queue, reusing a spare box if any.
    fn boxed(&mut self, frame: EthFrame) -> Box<EthFrame> {
        match self.spare_boxes.pop() {
            Some(mut b) => {
                *b = frame;
                b
            }
            None => Box::new(frame),
        }
    }
}

fn corrupt_payload(frame: &mut EthFrame, rng: &mut SimRng, pool: &mut BytesPool) {
    if frame.payload.is_empty() {
        // Nothing to flip in the payload; damage the ethertype instead,
        // which receivers will reject just the same.
        frame.ethertype ^= 0x0001;
        return;
    }
    let idx = rng.below(frame.payload.len() as u64) as usize;
    // Flip in place when this frame holds the only reference to the
    // payload (the common case: no duplicate, no tap capture); fall
    // back to copy-on-write into a pooled buffer when shared.
    if let Some(bytes) = frame.payload.get_mut() {
        bytes[idx] ^= 0xFF;
    } else {
        let src = frame.payload.clone();
        frame.payload = pool.take_with(src.len(), |b| {
            b.copy_from_slice(&src);
            b[idx] ^= 0xFF;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;
    use crate::fault::FaultSpec;
    use crate::frame::{ethertype, EthFrame, MacAddr};
    use crate::node::NullDevice;

    /// Sends `count` frames of `payload_len` bytes, one per `interval`.
    struct Blaster {
        count: u64,
        sent: u64,
        payload_len: usize,
        interval: NanoDur,
    }

    impl Device for Blaster {
        fn name(&self) -> &str {
            "blaster"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.timer_in(NanoDur::ZERO, 0);
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: EthFrame) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.sent < self.count {
                self.sent += 1;
                let f = EthFrame::new(
                    MacAddr::local(2),
                    MacAddr::local(1),
                    ethertype::SIM_TEST,
                    Bytes::from(vec![0u8; self.payload_len]),
                );
                ctx.send(PortId(0), f);
                ctx.timer_in(self.interval, 0);
            }
        }
    }

    fn world(faults: FaultSpec) -> (Simulator, NodeId) {
        let mut sim = Simulator::new(42);
        let src = sim.add_node(Blaster {
            count: 100,
            sent: 0,
            payload_len: 46,
            interval: NanoDur::from_micros(10),
        });
        let dst = sim.add_node(NullDevice::new());
        sim.connect(
            src,
            PortId(0),
            dst,
            PortId(0),
            LinkSpec::gigabit().with_faults(faults),
        );
        (sim, dst)
    }

    #[test]
    fn frames_arrive_after_ser_plus_prop() {
        let (mut sim, dst) = world(FaultSpec::none());
        sim.run_until(Nanos::from_micros(1));
        // One 64B frame: 672 ns serialization + 25 ns propagation.
        assert_eq!(sim.trace().counters().delivered, 1);
        let _ = dst;
    }

    #[test]
    fn all_frames_delivered_on_clean_link() {
        let (mut sim, dst) = world(FaultSpec::none());
        sim.run_until(Nanos::from_millis(2));
        assert_eq!(sim.trace().counters().sent, 100);
        assert_eq!(sim.trace().counters().delivered, 100);
        assert_eq!(sim.node_ref::<NullDevice>(dst).frames_seen(), 100);
    }

    #[test]
    fn lossy_link_drops_frames() {
        let (mut sim, dst) = world(FaultSpec::lossy(0.5));
        sim.run_until(Nanos::from_millis(2));
        let c = sim.trace().counters();
        assert_eq!(c.sent, 100);
        assert!(c.dropped > 20 && c.dropped < 80, "dropped={}", c.dropped);
        assert_eq!(c.delivered + c.dropped, 100);
        assert_eq!(sim.node_ref::<NullDevice>(dst).frames_seen(), c.delivered);
    }

    #[test]
    fn determinism_same_seed_same_counters() {
        let run = || {
            let (mut sim, _) = world(FaultSpec::lossy(0.3));
            sim.run_until(Nanos::from_millis(2));
            sim.trace().counters()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unwired_port_drops() {
        let mut sim = Simulator::new(1);
        let src = sim.add_node(Blaster {
            count: 1,
            sent: 0,
            payload_len: 10,
            interval: NanoDur::from_micros(1),
        });
        let _ = src;
        sim.run_until(Nanos::from_micros(5));
        assert_eq!(sim.trace().counters().dropped, 1);
        assert_eq!(sim.trace().counters().delivered, 0);
    }

    #[test]
    fn tap_sees_every_frame_once() {
        let mut sim = Simulator::new(7);
        let src = sim.add_node(Blaster {
            count: 10,
            sent: 0,
            payload_len: 46,
            interval: NanoDur::from_micros(10),
        });
        let dst = sim.add_node(NullDevice::new());
        let link = sim.connect(src, PortId(0), dst, PortId(0), LinkSpec::gigabit());
        let tap = sim.attach_tap(link, Tap::hardware_default());
        sim.run_until(Nanos::from_millis(1));
        assert_eq!(sim.tap(tap).records().len(), 10);
        // All quantized to 8 ns.
        for r in sim.tap(tap).records() {
            assert_eq!(r.ts.as_nanos() % 8, 0);
        }
    }

    #[test]
    fn serialization_backpressure_queues_frames() {
        // Blast 10 frames with zero interval: they serialize back-to-back.
        let mut sim = Simulator::new(7);
        let src = sim.add_node(BurstSource { n: 10 });
        let dst = sim.add_node(NullDevice::new());
        sim.connect(src, PortId(0), dst, PortId(0), LinkSpec::gigabit());
        sim.record_events(true);
        sim.run_until(Nanos::from_millis(1));
        // 64B+overhead = 672ns each; arrivals spaced exactly 672ns apart.
        let mut arrivals: Vec<Nanos> = sim
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Delivered { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        arrivals.sort();
        assert_eq!(arrivals.len(), 10);
        for w in arrivals.windows(2) {
            assert_eq!(w[1] - w[0], NanoDur(672));
        }
    }

    struct BurstSource {
        n: u64,
    }
    impl Device for BurstSource {
        fn name(&self) -> &str {
            "burst"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..self.n {
                let f = EthFrame::new(
                    MacAddr::local(2),
                    MacAddr::local(1),
                    ethertype::SIM_TEST,
                    Bytes::from(vec![0u8; 46]),
                );
                ctx.send(PortId(0), f);
            }
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: EthFrame) {}
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_panics() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(NullDevice::new());
        let b = sim.add_node(NullDevice::new());
        let c = sim.add_node(NullDevice::new());
        sim.connect(a, PortId(0), b, PortId(0), LinkSpec::gigabit());
        sim.connect(a, PortId(0), c, PortId(0), LinkSpec::gigabit());
    }

    #[test]
    fn payload_pool_recycles_on_hot_path() {
        use crate::devices::PeriodicSource;
        let mut sim = Simulator::new(9);
        let src = sim.add_node(PeriodicSource::new(
            "src",
            MacAddr::local(1),
            MacAddr::local(2),
            46,
            NanoDur::from_micros(10),
        ));
        let dst = sim.add_node(NullDevice::new());
        sim.connect(src, PortId(0), dst, PortId(0), LinkSpec::gigabit());
        sim.run_until(Nanos::from_millis(1));
        // ~100 frames but only a couple of distinct in-flight buffers:
        // after the first frame is delivered and dropped, its payload
        // returns to the pool and every later frame recycles it.
        let pool = sim.pool();
        assert!(pool.hits() > 10, "hits={}", pool.hits());
        assert!(pool.misses() <= 2, "misses={}", pool.misses());
    }

    #[test]
    fn run_to_quiescence_drains() {
        let (mut sim, _) = world(FaultSpec::none());
        sim.run_to_quiescence();
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.trace().counters().delivered, 100);
    }
}
