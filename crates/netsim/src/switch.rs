//! A learning Ethernet switch with strict-priority egress queues.
//!
//! Store-and-forward: a frame is forwarded only after it has fully
//! arrived, then spends a configurable lookup/fabric latency before
//! becoming eligible for egress. Each egress port has eight queues (one
//! per 802.1p PCP) drained by a strict-priority scheduler — how
//! industrial switches keep cyclic RT traffic (PCP 6) ahead of
//! best-effort IT flows sharing the same wire.

use crate::frame::EthFrame;
use crate::frame::MacAddr;
use crate::node::{Ctx, Device, PortId};
use crate::time::{NanoDur, Nanos};
use std::collections::{BTreeMap, VecDeque};

/// Per-egress-port scheduler state.
#[derive(Debug, Default)]
struct Egress {
    /// One FIFO per PCP, index 7 = highest priority.
    queues: [VecDeque<EthFrame>; 8],
    /// Transmitter busy until (mirrors the link's serialization state).
    busy_until: Nanos,
    /// Latest time a drain timer is already pending for, so a burst of
    /// enqueues while the transmitter is busy arms one timer, not one
    /// per frame.
    armed_until: Nanos,
    /// Frames dropped because the queue hit its cap or port is unwired.
    tail_drops: u64,
    /// High-water mark of total queued frames.
    peak_depth: usize,
}

impl Egress {
    fn depth(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    fn pop_highest(&mut self) -> Option<EthFrame> {
        self.queues.iter_mut().rev().find_map(|q| q.pop_front())
    }
}

/// Configuration for [`LearningSwitch`].
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// Number of ports.
    pub ports: usize,
    /// Lookup + fabric latency between full arrival and egress
    /// eligibility. Industrial gigabit switches: ~1–3 µs.
    pub forwarding_latency: NanoDur,
    /// Per-egress-port queue capacity in frames (all PCPs combined).
    pub queue_capacity: usize,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            ports: 8,
            forwarding_latency: NanoDur(1_500),
            queue_capacity: 512,
        }
    }
}

/// MAC-learning store-and-forward switch.
#[derive(Debug)]
pub struct LearningSwitch {
    name: String,
    cfg: SwitchConfig,
    fdb: BTreeMap<MacAddr, PortId>,
    egress: Vec<Egress>,
    /// Frames waiting out the forwarding latency: (eligible_at, out,
    /// frame). The latency is constant, so staging order is
    /// eligibility order and the ready frames are always a prefix.
    staged: VecDeque<(Nanos, PortId, EthFrame)>,
    frames_forwarded: u64,
    frames_flooded: u64,
    frames_filtered: u64,
}

/// Timer token: staged frames became eligible.
const TOKEN_STAGE: u64 = 1;
/// Timer token namespace: egress-port drain timers.
const TOKEN_DRAIN_BASE: u64 = 1 << 32;

impl LearningSwitch {
    /// A switch with the given name and config.
    pub fn new(name: impl Into<String>, cfg: SwitchConfig) -> Self {
        let egress = (0..cfg.ports).map(|_| Egress::default()).collect();
        LearningSwitch {
            name: name.into(),
            cfg,
            fdb: BTreeMap::new(),
            egress,
            staged: VecDeque::new(),
            frames_forwarded: 0,
            frames_flooded: 0,
            frames_filtered: 0,
        }
    }

    /// An 8-port switch with default latency/queueing.
    pub fn eight_port(name: impl Into<String>) -> Self {
        LearningSwitch::new(name, SwitchConfig::default())
    }

    /// Learned forwarding table size.
    pub fn fdb_len(&self) -> usize {
        self.fdb.len()
    }

    /// Frames forwarded to a single learned port.
    pub fn frames_forwarded(&self) -> u64 {
        self.frames_forwarded
    }

    /// Frames flooded (unknown destination / multicast).
    pub fn frames_flooded(&self) -> u64 {
        self.frames_flooded
    }

    /// Frames filtered (destination learned on the ingress port).
    pub fn frames_filtered(&self) -> u64 {
        self.frames_filtered
    }

    /// Total tail drops across all egress ports.
    pub fn tail_drops(&self) -> u64 {
        self.egress.iter().map(|e| e.tail_drops).sum()
    }

    /// Largest queue depth observed on any port.
    pub fn peak_queue_depth(&self) -> usize {
        self.egress.iter().map(|e| e.peak_depth).max().unwrap_or(0)
    }

    /// Pre-seed the forwarding table (commissioned industrial networks
    /// are static; operators often pin the FDB).
    pub fn learn_static(&mut self, mac: MacAddr, port: PortId) {
        self.fdb.insert(mac, port);
    }

    fn stage(&mut self, ctx: &mut Ctx<'_>, out: PortId, frame: EthFrame) {
        if self.cfg.forwarding_latency.as_nanos() == 0 {
            self.enqueue(ctx, out, frame);
        } else {
            let at = ctx.now() + self.cfg.forwarding_latency;
            self.staged.push_back((at, out, frame));
            ctx.timer_at(at, TOKEN_STAGE);
        }
    }

    fn enqueue(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EthFrame) {
        if port.0 >= self.egress.len() {
            return;
        }
        let cap = self.cfg.queue_capacity;
        let eg = &mut self.egress[port.0];
        if eg.depth() >= cap {
            eg.tail_drops += 1;
            return;
        }
        let pcp = frame.priority().min(7) as usize;
        eg.queues[pcp].push_back(frame);
        let depth = eg.depth();
        eg.peak_depth = eg.peak_depth.max(depth);
        self.drain(ctx, port);
    }

    /// Transmit the head of the highest-priority non-empty queue if the
    /// egress transmitter is idle; otherwise the pending drain timer
    /// picks it up when the transmitter frees.
    fn drain(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        let now = ctx.now();
        let Some(rate) = ctx.link_rate(port) else {
            let eg = &mut self.egress[port.0];
            while eg.pop_highest().is_some() {
                eg.tail_drops += 1;
            }
            return;
        };
        let eg = &mut self.egress[port.0];
        if eg.busy_until > now {
            // A frame enqueued mid-serialization may be the last event
            // this port ever sees: re-arm the drain timer or the frame
            // sits in the queue forever. `armed_until` dedups the
            // re-arm so a burst of enqueues schedules one timer.
            if eg.depth() > 0 && eg.armed_until < eg.busy_until {
                eg.armed_until = eg.busy_until;
                ctx.timer_at(eg.busy_until, TOKEN_DRAIN_BASE + port.0 as u64);
            }
            return;
        }
        if let Some(frame) = eg.pop_highest() {
            let ser = NanoDur::for_bits(frame.wire_bits(), rate);
            eg.busy_until = now + ser;
            ctx.send(port, frame);
            if eg.depth() > 0 {
                eg.armed_until = eg.busy_until;
                ctx.timer_at(eg.busy_until, TOKEN_DRAIN_BASE + port.0 as u64);
            }
        }
    }
}

impl Device for LearningSwitch {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, ingress: PortId, frame: EthFrame) {
        if !frame.src.is_multicast() {
            self.fdb.insert(frame.src, ingress);
        }
        match self.fdb.get(&frame.dst).copied() {
            Some(out) if !frame.dst.is_multicast() => {
                if out == ingress {
                    self.frames_filtered += 1;
                } else {
                    self.frames_forwarded += 1;
                    self.stage(ctx, out, frame);
                }
            }
            _ => {
                self.frames_flooded += 1;
                for p in 0..self.cfg.ports {
                    if p != ingress.0 {
                        // steelcheck: allow(hot-path-alloc): flood fan-out needs one frame per port; payload clones by Arc refcount
                        self.stage(ctx, PortId(p), frame.clone());
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_STAGE {
            let now = ctx.now();
            while self.staged.front().is_some_and(|e| e.0 <= now) {
                let Some((_, port, frame)) = self.staged.pop_front() else { break };
                self.enqueue(ctx, port, frame);
            }
        } else if token >= TOKEN_DRAIN_BASE {
            let port = PortId((token - TOKEN_DRAIN_BASE) as usize);
            self.drain(ctx, port);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{ethertype, VlanTag};
    use crate::link::LinkSpec;
    use crate::node::NullDevice;
    use crate::sim::Simulator;
    use crate::bytes::Bytes;

    /// Sends a fixed list of (dst, pcp, payload_len) frames at start.
    struct Scripted {
        mac: MacAddr,
        script: Vec<(MacAddr, Option<u8>, usize)>,
    }

    impl Device for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (dst, pcp, len) in self.script.drain(..) {
                let mut f = EthFrame::new(
                    dst,
                    self.mac,
                    ethertype::SIM_TEST,
                    Bytes::from(vec![0u8; len]),
                );
                if let Some(p) = pcp {
                    f = f.with_vlan(VlanTag { pcp: p, vid: 100 });
                }
                ctx.send(PortId(0), f);
            }
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _p: PortId, _f: EthFrame) {}
    }

    #[test]
    fn learns_and_forwards_unicast() {
        let mut sim = Simulator::new(1);
        let ha = MacAddr::local(1);
        let hb = MacAddr::local(2);
        let a = sim.add_node(Scripted {
            mac: ha,
            script: vec![(hb, None, 46)],
        });
        let b = sim.add_node(Scripted {
            mac: hb,
            script: vec![(ha, None, 46)],
        });
        let c = sim.add_node(NullDevice::new());
        let sw = sim.add_node(LearningSwitch::eight_port("sw0"));
        sim.connect(a, PortId(0), sw, PortId(0), LinkSpec::gigabit());
        sim.connect(b, PortId(0), sw, PortId(1), LinkSpec::gigabit());
        sim.connect(c, PortId(0), sw, PortId(2), LinkSpec::gigabit());
        sim.run_until(Nanos::from_millis(1));
        let s = sim.node_ref::<LearningSwitch>(sw);
        assert_eq!(s.fdb_len(), 2);
        // Both initial frames flood (dst unknown at arrival order), or
        // the second may be forwarded if it arrived after learning.
        assert!(s.frames_flooded() + s.frames_forwarded() == 2);
        // The null host saw at least one flooded copy.
        assert!(sim.node_ref::<NullDevice>(c).frames_seen() >= 1);
    }

    #[test]
    fn second_exchange_is_unicast_only() {
        let mut sim = Simulator::new(2);
        let ha = MacAddr::local(1);
        let hb = MacAddr::local(2);
        let a = sim.add_node(Scripted {
            mac: ha,
            script: vec![(hb, None, 46)],
        });
        let b = sim.add_node(NullDevice::new());
        let c = sim.add_node(NullDevice::new());
        let sw = sim.add_node({
            let mut s = LearningSwitch::eight_port("sw0");
            // Static commissioning: b's MAC pinned to port 1.
            s.learn_static(hb, PortId(1));
            s
        });
        sim.connect(a, PortId(0), sw, PortId(0), LinkSpec::gigabit());
        sim.connect(b, PortId(0), sw, PortId(1), LinkSpec::gigabit());
        sim.connect(c, PortId(0), sw, PortId(2), LinkSpec::gigabit());
        sim.run_until(Nanos::from_millis(1));
        let s = sim.node_ref::<LearningSwitch>(sw);
        assert_eq!(s.frames_forwarded(), 1);
        assert_eq!(s.frames_flooded(), 0);
        assert_eq!(sim.node_ref::<NullDevice>(b).frames_seen(), 1);
        assert_eq!(sim.node_ref::<NullDevice>(c).frames_seen(), 0);
    }

    #[test]
    fn frame_enqueued_during_serialization_still_drains() {
        // Regression: a frame reaching a busy egress transmitter used
        // to rely on later traffic to re-trigger the drain — if it was
        // the last frame the port ever saw, it sat queued forever and
        // the simulation went quiescent with the frame undelivered.
        let mut sim = Simulator::new(4);
        let ha = MacAddr::local(1);
        let hb = MacAddr::local(2);
        // A long frame (~8 µs egress serialization on gigabit) chased
        // by a short one that reaches the egress queue mid-transmit.
        let a = sim.add_node(Scripted {
            mac: ha,
            script: vec![(hb, None, 1000), (hb, None, 46)],
        });
        let b = sim.add_node(NullDevice::new());
        let sw = sim.add_node({
            let mut s = LearningSwitch::eight_port("sw0");
            s.learn_static(hb, PortId(1));
            s
        });
        sim.connect(a, PortId(0), sw, PortId(0), LinkSpec::gigabit());
        sim.connect(b, PortId(0), sw, PortId(1), LinkSpec::gigabit());
        sim.run_to_quiescence();
        assert_eq!(sim.node_ref::<LearningSwitch>(sw).frames_forwarded(), 2);
        assert_eq!(sim.node_ref::<NullDevice>(b).frames_seen(), 2);
    }

    #[test]
    fn strict_priority_preempts_queue_order() {
        // Fill an egress port with low-priority frames, then one
        // high-priority frame: it must depart before the queued bulk.
        let mut sim = Simulator::new(3);
        let ha = MacAddr::local(1);
        let hb = MacAddr::local(2);
        let mut script: Vec<(MacAddr, Option<u8>, usize)> =
            (0..20).map(|_| (hb, Some(0), 1000)).collect();
        script.push((hb, Some(6), 46)); // RT frame last in arrival order
        let a = sim.add_node(Scripted { mac: ha, script });
        let b = sim.add_node(NullDevice::new());
        let sw = sim.add_node({
            let mut s = LearningSwitch::new(
                "sw0",
                SwitchConfig {
                    ports: 4,
                    forwarding_latency: NanoDur(1000),
                    queue_capacity: 512,
                },
            );
            s.learn_static(hb, PortId(1));
            s
        });
        // Fast ingress, slow egress: the bulk frames pile up in the
        // egress queue so priority scheduling has something to preempt.
        sim.connect(a, PortId(0), sw, PortId(0), LinkSpec::ten_gigabit());
        sim.connect(b, PortId(0), sw, PortId(1), LinkSpec::gigabit());
        sim.record_events(true);
        sim.run_until(Nanos::from_millis(5));
        assert_eq!(sim.node_ref::<NullDevice>(b).frames_seen(), 21);
        // Find the arrival order at b: the small RT frame must not be
        // last (it overtakes most of the bulk queue).
        let arrivals: Vec<usize> = sim
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e {
                crate::trace::TraceEvent::Sent { node, wire_len, .. } if *node == sw => {
                    Some(*wire_len)
                }
                _ => None,
            })
            .collect();
        let rt_pos = arrivals.iter().position(|&l| l < 100).unwrap();
        assert!(
            rt_pos < arrivals.len() - 5,
            "RT frame departed at position {rt_pos} of {}",
            arrivals.len()
        );
    }

    #[test]
    fn queue_capacity_tail_drops() {
        let mut sim = Simulator::new(4);
        let ha = MacAddr::local(1);
        let hb = MacAddr::local(2);
        let script: Vec<(MacAddr, Option<u8>, usize)> =
            (0..100).map(|_| (hb, None, 1400)).collect();
        let a = sim.add_node(Scripted { mac: ha, script });
        let b = sim.add_node(NullDevice::new());
        let sw = sim.add_node({
            let mut s = LearningSwitch::new(
                "sw0",
                SwitchConfig {
                    ports: 2,
                    forwarding_latency: NanoDur::ZERO,
                    queue_capacity: 10,
                },
            );
            s.learn_static(hb, PortId(1));
            s
        });
        // 10G in, 1G out: the egress queue overflows its 10-frame cap.
        sim.connect(a, PortId(0), sw, PortId(0), LinkSpec::ten_gigabit());
        sim.connect(b, PortId(0), sw, PortId(1), LinkSpec::gigabit());
        sim.run_until(Nanos::from_millis(20));
        let s = sim.node_ref::<LearningSwitch>(sw);
        assert!(s.tail_drops() > 0, "expected tail drops");
        assert_eq!(
            s.tail_drops() + sim.node_ref::<NullDevice>(b).frames_seen(),
            100
        );
        assert!(s.peak_queue_depth() <= 10);
    }
}
