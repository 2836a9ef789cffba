//! The XDP host: a [`Device`] that runs a verified program on every
//! received frame, in native driver mode.
//!
//! Per frame the host charges: NIC RX (MAC + PCIe DMA), program
//! execution (deterministic cost model), host noise (stochastic
//! profile, scaled by concurrently active flows), and — for `XDP_TX` —
//! NIC TX before the frame re-enters the wire.

use crate::cost::{BlockPlan, CostModel};
use crate::host::{HostClock, HostProfile};
use crate::insn::XdpAction;
use crate::lower::{lower, run_lowered, LoweredProgram};
use crate::maps::MapSet;
use crate::nic::NicModel;
use crate::prog::Program;
use crate::verifier::{verify_with_proof, VerifyError, VerifyStats};
use crate::vm::{self, XdpContext};
use std::collections::BTreeMap;
use steelworks_netsim::frame::{EthFrame, MacAddr};
use steelworks_netsim::node::{Ctx, Device, PortId};
use steelworks_netsim::stats::SampleSet;
use steelworks_netsim::time::{NanoDur, Nanos};

/// Window within which a flow counts as concurrently active.
const FLOW_WINDOW: NanoDur = NanoDur(100_000_000); // 100 ms

/// Counters exported by an [`XdpHost`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XdpStats {
    /// Frames processed.
    pub runs: u64,
    /// `XDP_TX` verdicts.
    pub tx: u64,
    /// `XDP_DROP` verdicts.
    pub drop: u64,
    /// `XDP_PASS` verdicts.
    pub pass: u64,
    /// Aborts (runtime traps).
    pub aborted: u64,
    /// Redirects (unsupported; counted then dropped).
    pub redirect: u64,
}

/// A host NIC with an attached XDP program.
#[derive(Debug)]
pub struct XdpHost {
    name: String,
    prog: Program,
    /// Verifier facts captured at load time (fuel bound, loop count).
    verify_stats: VerifyStats,
    /// Basic-block cost plan derived at load time.
    plan: BlockPlan,
    /// The compiled form of the program, built from the verifier's
    /// proof artifact at load time. `None` when lowering was declined
    /// (`XDPSIM_FORCE_INTERP=1`) or failed — then every frame runs the
    /// interpreter. Both engines are bit-identical on verified
    /// programs, so the choice is invisible to results.
    lowered: Option<LoweredProgram>,
    /// Reused packet-serialization buffer (one live frame at a time).
    pkt_scratch: Vec<u8>,
    /// The host's maps — inspect after a run to drain ring buffers.
    pub maps: MapSet,
    cost: CostModel,
    profile: HostProfile,
    clock: HostClock,
    nic: NicModel,
    /// RSS: flows hash onto this many RX queues, each pinned to a CPU.
    pub rx_queues: u32,
    stats: XdpStats,
    flow_last_seen: BTreeMap<MacAddr, Nanos>,
    /// A lower bound on every `flow_last_seen` value: until `now` is a
    /// full window past it, no flow can have expired and the sweep is
    /// skipped.
    flow_oldest: Nanos,
    /// Deferred TX frames (processing delay in flight).
    pending: Vec<(Nanos, PortId, EthFrame)>,
    /// Spare buffer swapped with `pending` on each timer fire, so the
    /// hot path never reallocates.
    pending_swap: Vec<(Nanos, PortId, EthFrame)>,
    /// Per-frame total processing times (ns), for direct inspection.
    pub proc_times: SampleSet,
    forced_flows: Option<u32>,
}

impl XdpHost {
    /// Create a host; the program is verified against `maps` at load
    /// time, exactly like `bpf(BPF_PROG_LOAD)`, and — on success —
    /// compiled into its lowered form from the verifier's proof
    /// artifact (JIT-on-load). Set `XDPSIM_FORCE_INTERP=1` to pin the
    /// interpreter instead; results are bit-identical either way.
    pub fn new(
        name: impl Into<String>,
        prog: Program,
        maps: MapSet,
        profile: HostProfile,
    ) -> Result<Self, VerifyError> {
        let (verify_stats, proof) = verify_with_proof(&prog, &maps)?;
        let plan = BlockPlan::new(&prog);
        let force_interp = std::env::var("XDPSIM_FORCE_INTERP")
            .map(|v| v == "1")
            .unwrap_or(false);
        let lowered = if force_interp {
            None
        } else {
            // A lowering failure is an internal inconsistency; the
            // interpreter remains a complete fallback.
            lower(&prog, &proof).ok()
        };
        Ok(XdpHost {
            name: name.into(),
            prog,
            verify_stats,
            plan,
            lowered,
            pkt_scratch: Vec::new(),
            maps,
            cost: CostModel::default(),
            profile,
            clock: HostClock::perfect(),
            nic: NicModel::default(),
            rx_queues: 1,
            stats: XdpStats::default(),
            flow_last_seen: BTreeMap::new(),
            flow_oldest: Nanos::ZERO,
            pending: Vec::new(),
            pending_swap: Vec::new(),
            proc_times: SampleSet::new(),
            forced_flows: None,
        })
    }

    /// Override the host clock (builder style).
    pub fn with_clock(mut self, clock: HostClock) -> Self {
        self.clock = clock;
        self
    }

    /// Override the NIC model (builder style).
    pub fn with_nic(mut self, nic: NicModel) -> Self {
        self.nic = nic;
        self
    }

    /// Override the cost model (builder style).
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Pin the active-flow count instead of tracking it from traffic
    /// (useful for controlled experiments).
    pub fn with_forced_flows(mut self, flows: u32) -> Self {
        self.forced_flows = Some(flows);
        self
    }

    /// Enable RSS across `queues` RX queues (each pinned to one CPU):
    /// flows hash to queues by source MAC, so per-CPU maps see a stable
    /// per-flow CPU — and the program's `rx_queue` context field is
    /// populated accordingly.
    pub fn with_rx_queues(mut self, queues: u32) -> Self {
        assert!(queues >= 1);
        self.rx_queues = queues;
        self
    }

    /// RSS hash: which queue/CPU a source MAC lands on.
    pub fn rss_queue(&self, src: MacAddr) -> u32 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for b in src.0 {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h % self.rx_queues as u64) as u32
    }

    /// Verdict counters.
    pub fn stats(&self) -> XdpStats {
        self.stats
    }

    /// Which execution engine this host selected at load time:
    /// `"lowered"` (default) or `"interp"` (`XDPSIM_FORCE_INTERP=1`,
    /// or a lowering failure).
    pub fn engine(&self) -> &'static str {
        if self.lowered.is_some() {
            "lowered"
        } else {
            "interp"
        }
    }

    /// The verifier facts captured at load time (notably `max_insns`,
    /// the fuel bound the VM enforces on every frame).
    pub fn verify_stats(&self) -> VerifyStats {
        self.verify_stats
    }

    /// Flows seen within the activity window as of the last frame.
    pub fn tracked_flows(&self) -> u32 {
        self.flow_last_seen.len() as u32
    }

    fn active_flows(&mut self, now: Nanos) -> u32 {
        if let Some(f) = self.forced_flows {
            return f;
        }
        // Inserts only raise last-seen times, so `flow_oldest` stays a
        // lower bound between sweeps; a steady set of cyclic flows
        // never pays for the O(flows) retain.
        if now.saturating_since(self.flow_oldest) > FLOW_WINDOW {
            self.flow_last_seen
                .retain(|_, last| now.saturating_since(*last) <= FLOW_WINDOW);
            self.flow_oldest = self.flow_last_seen.values().copied().min().unwrap_or(now);
        }
        (self.flow_last_seen.len() as u32).max(1)
    }
}

/// Serialize a frame into the raw bytes an XDP program sees, reusing
/// the caller's buffer (cleared first) to avoid a per-frame allocation.
fn frame_to_bytes(frame: &EthFrame, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(14 + frame.payload.len());
    out.extend_from_slice(&frame.dst.0);
    out.extend_from_slice(&frame.src.0);
    out.extend_from_slice(&frame.ethertype.to_be_bytes());
    out.extend_from_slice(&frame.payload);
}

/// Rebuild a frame from (possibly modified) raw bytes, preserving the
/// original frame identity so taps can correlate request/response. The
/// payload comes from the engine's buffer pool, so a steady reflection
/// loop recycles the buffers its earlier frames released.
fn bytes_to_frame(ctx: &mut Ctx<'_>, bytes: &[u8], original: &EthFrame) -> Option<EthFrame> {
    if bytes.len() < 14 {
        return None;
    }
    let body = &bytes[14..];
    Some(EthFrame {
        id: original.id,
        // steelcheck: allow(unwrap-in-lib): slice is exactly 6 bytes: frame buffers are length-checked on entry
        dst: MacAddr(bytes[0..6].try_into().expect("slice len 6")),
        // steelcheck: allow(unwrap-in-lib): slice is exactly 6 bytes: frame buffers are length-checked on entry
        src: MacAddr(bytes[6..12].try_into().expect("slice len 6")),
        vlan: original.vlan,
        ethertype: u16::from_be_bytes([bytes[12], bytes[13]]),
        payload: ctx.payload_with(body.len(), |b| b.copy_from_slice(body)),
    })
}

impl Device for XdpHost {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EthFrame) {
        let now = ctx.now();
        self.flow_last_seen.insert(frame.src, now);
        let flows = self.active_flows(now);

        let host_time = self.clock.read(now);
        let queue = self.rss_queue(frame.src);
        let mut packet = std::mem::take(&mut self.pkt_scratch);
        frame_to_bytes(&frame, &mut packet);
        let xctx = XdpContext {
            ingress_ifindex: port.0 as u32,
            rx_queue: queue,
        };
        // queue N is pinned to CPU N.
        let result = match &self.lowered {
            Some(lp) => run_lowered(
                lp,
                &mut packet,
                xctx,
                &mut self.maps,
                &self.cost,
                host_time,
                queue,
                ctx.rng(),
            ),
            None => vm::run_with(
                &self.prog,
                Some(&self.plan),
                self.verify_stats.max_insns,
                &mut packet,
                xctx,
                &mut self.maps,
                &self.cost,
                host_time,
                queue,
                ctx.rng(),
            ),
        };

        let noise =
            self.profile
                .sample_noise(ctx.rng(), flows, result.ringbuf_events, result.pkt_writes);
        let rx = self.nic.rx_latency(frame.frame_len());
        self.stats.runs += 1;

        match result.action {
            XdpAction::Tx => {
                self.stats.tx += 1;
                let tx = self.nic.tx_latency(packet.len().max(60));
                let total = rx + result.cost.as_dur() + noise + tx;
                self.proc_times.push(total.as_nanos() as f64);
                if let Some(out) = bytes_to_frame(ctx, &packet, &frame) {
                    let at = now + total;
                    self.pending.push((at, port, out));
                    ctx.timer_at(at, 0);
                }
            }
            XdpAction::Drop => {
                self.stats.drop += 1;
                self.proc_times
                    .push((rx + result.cost.as_dur() + noise).as_nanos() as f64);
            }
            XdpAction::Pass => {
                self.stats.pass += 1;
                self.proc_times
                    .push((rx + result.cost.as_dur() + noise).as_nanos() as f64);
            }
            XdpAction::Redirect => {
                self.stats.redirect += 1;
            }
            XdpAction::Aborted => {
                self.stats.aborted += 1;
            }
        }
        self.pkt_scratch = packet;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let now = ctx.now();
        let mut rest = std::mem::take(&mut self.pending_swap);
        for (at, port, frame) in self.pending.drain(..) {
            if at <= now {
                ctx.send(port, frame);
            } else {
                rest.push((at, port, frame));
            }
        }
        // The drained buffer becomes next fire's scratch (keeps its
        // capacity); the survivors become the new queue.
        self.pending_swap = std::mem::replace(&mut self.pending, rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{reflect_variant, standard_maps, ReflectVariant};
    use steelworks_netsim::prelude::*;

    fn reflect_world(variant: ReflectVariant) -> (Simulator, NodeId, NodeId, TapId) {
        let mut sim = Simulator::new(11);
        let src = sim.add_node(
            PeriodicSource::new(
                "sender",
                MacAddr::local(1),
                MacAddr::local(100),
                50,
                NanoDur::from_millis(1),
            )
            .with_limit(200),
        );
        let (maps, rb) = standard_maps();
        let prog = reflect_variant(variant, rb);
        let host = sim.add_node(
            XdpHost::new("xdp", prog, maps, HostProfile::preempt_rt()).expect("verifies"),
        );
        let link = sim.connect(src, PortId(0), host, PortId(0), LinkSpec::gigabit());
        let tap = sim.attach_tap(link, Tap::hardware_default());
        (sim, src, host, tap)
    }

    #[test]
    fn base_variant_reflects_all_frames() {
        let (mut sim, _src, host, tap) = reflect_world(ReflectVariant::Base);
        sim.run_until(Nanos::from_millis(300));
        let stats = sim.node_ref::<XdpHost>(host).stats();
        assert_eq!(stats.runs, 200);
        assert_eq!(stats.tx, 200);
        assert_eq!(stats.aborted, 0);
        // Tap saw 200 in + 200 out.
        assert_eq!(sim.tap(tap).records().len(), 400);
        assert_eq!(sim.tap(tap).reflection_rtts().len(), 200);
    }

    #[test]
    fn host_selects_lowered_engine_by_default() {
        // The env escape hatch is exercised by the dedicated
        // tests/force_interp_env.rs binary (env vars are process-wide).
        let (maps, rb) = standard_maps();
        let prog = reflect_variant(ReflectVariant::TsRb, rb);
        let host = XdpHost::new("xdp", prog, maps, HostProfile::preempt_rt()).expect("verifies");
        assert_eq!(host.engine(), "lowered");
    }

    #[test]
    fn reflection_swaps_macs() {
        let (mut sim, _src, _host, tap) = reflect_world(ReflectVariant::Base);
        sim.run_until(Nanos::from_millis(10));
        let recs = sim.tap(tap).records();
        let inbound = recs.iter().find(|r| r.dir == TapDir::AToB).unwrap();
        let outbound = recs.iter().find(|r| r.dir == TapDir::BToA).unwrap();
        assert_eq!(inbound.src, outbound.dst);
        assert_eq!(inbound.dst, outbound.src);
    }

    #[test]
    fn ringbuf_variant_slower_than_base() {
        let (mut sim_b, _, host_b, tap_b) = reflect_world(ReflectVariant::Base);
        sim_b.run_until(Nanos::from_millis(300));
        let (mut sim_r, _, host_r, tap_r) = reflect_world(ReflectVariant::TsRb);
        sim_r.run_until(Nanos::from_millis(300));
        let med = |tap: &Tap| {
            let mut s = SampleSet::new();
            for d in tap.reflection_rtts() {
                s.push(d.as_nanos() as f64);
            }
            s.median().unwrap()
        };
        let base_med = med(sim_b.tap(tap_b));
        let rb_med = med(sim_r.tap(tap_r));
        assert!(
            rb_med > base_med + 2_000.0,
            "ringbuf median {rb_med} vs base {base_med}"
        );
        let _ = (host_b, host_r);
    }

    #[test]
    fn ringbuf_records_collected() {
        let (mut sim, _, host, _) = reflect_world(ReflectVariant::TsRb);
        sim.run_until(Nanos::from_millis(100));
        let host = sim.node_mut::<XdpHost>(host);
        // Drain the ring buffer like a userspace consumer would.
        let rb = crate::maps::MapFd(0);
        let records = host.maps.get_mut(rb).unwrap().ring_drain();
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.len() == 8));
    }

    #[test]
    fn rss_spreads_flows_over_cpus() {
        // An rt_filter host with 4 RX queues: per-CPU counters must
        // accumulate on more than one CPU when many flows arrive.
        let mut sim = Simulator::new(21);
        let mut maps = crate::maps::MapSet::new();
        let (prog, allow, counters) = crate::programs::rt_filter(&mut maps);
        crate::programs::rt_filter_allow(&mut maps, allow, 0x8001);
        let host = sim.add_node(
            XdpHost::new("xdp", prog, maps, HostProfile::preempt_rt())
                .expect("verifies")
                .with_rx_queues(4),
        );
        let sw = sim.add_node(LearningSwitch::new(
            "agg",
            SwitchConfig {
                ports: 9,
                forwarding_latency: NanoDur(1_000),
                queue_capacity: 256,
            },
        ));
        for i in 0..8u32 {
            let payload = vec![0u8; 50];
            let _ = payload;
            let src = sim.add_node(
                PeriodicSource::new(
                    format!("f{i}"),
                    MacAddr::local(10 + i as u16),
                    MacAddr::local(0x0100),
                    50,
                    NanoDur::from_millis(1),
                )
                .with_limit(50),
            );
            sim.connect(src, PortId(0), sw, PortId(i as usize), LinkSpec::gigabit());
        }
        sim.connect(sw, PortId(8), host, PortId(0), LinkSpec::gigabit());
        sim.run_until(Nanos::from_millis(100));
        let host_ref = sim.node_ref::<XdpHost>(host);
        // Frames are SIM_TEST ethertype → all dropped by the filter;
        // what matters here is the per-CPU spread of counter index 1.
        let m = host_ref.maps.get(counters).unwrap();
        let cpus_used = (0..4)
            .filter(|&cpu| {
                m.array_lookup(1, cpu)
                    .map(|v| u64::from_le_bytes(v.try_into().unwrap()) > 0)
                    .unwrap_or(false)
            })
            .count();
        assert!(cpus_used >= 2, "RSS used {cpus_used} CPUs");
        // And nothing was lost.
        assert_eq!(host_ref.stats().drop, 400);
    }

    /// Wraps a host and records, after every frame, the arrival time,
    /// source MAC and the flow count the host tracked for that frame
    /// (the count fed to `sample_noise`, floored at one).
    struct FlowProbe {
        host: XdpHost,
        seen: Vec<(Nanos, MacAddr, u32)>,
    }

    impl Device for FlowProbe {
        fn name(&self) -> &str {
            "probe"
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EthFrame) {
            let (now, src) = (ctx.now(), frame.src);
            self.host.on_frame(ctx, port, frame);
            self.seen.push((now, src, self.host.tracked_flows()));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.host.on_timer(ctx, token);
        }
    }

    #[test]
    fn flow_window_ages_out_silent_flows() {
        // Three senders on their own host ports: A stops after 20
        // frames, B after 50, C keeps going for 300 ms. A and C share a
        // phase, so one of C's frames lands exactly 100 ms after A's
        // last — the window's inclusive edge.
        let mut sim = Simulator::new(3);
        let (maps, rb) = standard_maps();
        let host = XdpHost::new(
            "xdp",
            reflect_variant(ReflectVariant::Ts, rb),
            maps,
            HostProfile::preempt_rt(),
        )
        .expect("verifies");
        let probe = sim.add_node(FlowProbe { host, seen: Vec::new() });
        let senders = [(1u16, 20u64, 0u64), (2, 50, 500_000), (3, 300, 0)];
        for (port, &(mac, limit, offset)) in senders.iter().enumerate() {
            let src = sim.add_node(
                PeriodicSource::new(
                    format!("s{mac}"),
                    MacAddr::local(mac),
                    MacAddr::local(100),
                    50,
                    NanoDur::from_millis(1),
                )
                .with_limit(limit)
                .with_start_offset(NanoDur(offset)),
            );
            sim.connect(src, PortId(0), probe, PortId(port), LinkSpec::gigabit());
        }
        sim.run_until(Nanos::from_millis(320));
        let seen = &sim.node_ref::<FlowProbe>(probe).seen;
        assert_eq!(seen.len(), 370);

        // Reference: insert, then drop every flow silent for more than
        // the window, on every frame.
        let mut reference: BTreeMap<MacAddr, Nanos> = BTreeMap::new();
        for (i, &(now, src, tracked)) in seen.iter().enumerate() {
            reference.insert(src, now);
            reference.retain(|_, last| now.saturating_since(*last) <= FLOW_WINDOW);
            assert_eq!(tracked, reference.len() as u32, "frame {i} at {now:?}");
        }

        let a = MacAddr::local(1);
        let last_a = seen.iter().rev().find(|s| s.1 == a).expect("A sent").0;
        let count_at = |t: Nanos| seen.iter().find(|s| s.0 == t && s.1 != a).map(|s| s.2);
        assert_eq!(seen.iter().map(|s| s.2).max(), Some(3));
        // Exactly one window after A's last frame A still counts (B too);
        // one cycle later only B and C remain.
        assert_eq!(count_at(last_a + FLOW_WINDOW), Some(3));
        assert_eq!(count_at(last_a + FLOW_WINDOW + NanoDur::from_millis(1)), Some(2));
        assert_eq!(seen.last().map(|s| s.2), Some(1));
        assert_eq!(sim.node_ref::<FlowProbe>(probe).host.tracked_flows(), 1);
    }

    #[test]
    fn more_flows_more_jitter() {
        let jitter_p99 = |flows: u32| {
            let mut sim = Simulator::new(5);
            let src = sim.add_node(
                PeriodicSource::new(
                    "sender",
                    MacAddr::local(1),
                    MacAddr::local(100),
                    50,
                    NanoDur::from_millis(1),
                )
                .with_limit(500),
            );
            let (maps, rb) = standard_maps();
            let prog = reflect_variant(ReflectVariant::Ts, rb);
            let host = sim.add_node(
                XdpHost::new("xdp", prog, maps, HostProfile::preempt_rt())
                    .expect("verifies")
                    .with_forced_flows(flows),
            );
            let link = sim.connect(src, PortId(0), host, PortId(0), LinkSpec::gigabit());
            let tap = sim.attach_tap(link, Tap::hardware_default());
            sim.run_until(Nanos::from_secs(1));
            let rtts = sim.tap(tap).reflection_rtts();
            let mut jit = SampleSet::new();
            for w in rtts.windows(2) {
                jit.push((w[1].as_nanos() as f64 - w[0].as_nanos() as f64).abs());
            }
            jit.quantile(0.99).unwrap()
        };
        let j1 = jitter_p99(1);
        let j25 = jitter_p99(25);
        assert!(j25 > 1.5 * j1, "25-flow jitter {j25} vs 1-flow {j1}");
    }
}
