//! Property-based tests over the workspace's core invariants.
//!
//! Formerly driven by `proptest`; now driven by seeded [`SimRng`] case
//! loops so the whole workspace builds offline with zero external
//! crates. Each test keeps its original invariant and case count, and
//! every assertion carries the case index — the generators are fully
//! deterministic, so a failing case replays by construction.

use steelworks::netsim::bytes::Bytes;
use steelworks::prelude::*;

// ---------------------------------------------------------------------
// Deterministic case generators (proptest strategy stand-ins)
// ---------------------------------------------------------------------

/// Uniform f64 in `[lo, hi)`.
fn f64_in(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    lo + rng.f64() * (hi - lo)
}

/// Vec of arbitrary bytes with length in `[min_len, max_len)`.
fn bytes_vec(rng: &mut SimRng, min_len: usize, max_len: usize) -> Vec<u8> {
    let len = rng.range(min_len as u64, max_len as u64) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Arbitrary printable text of up to `max_chars` chars — the stand-in
/// for proptest's `\PC{0,n}` (any non-control char) strategy: mixes
/// ASCII, Latin-1 supplement and arbitrary BMP scalars.
fn printable_text(rng: &mut SimRng, max_chars: usize) -> String {
    let n = rng.below(max_chars as u64 + 1) as usize;
    let mut s = String::new();
    for _ in 0..n {
        let c = match rng.below(4) {
            // ASCII printable.
            0 | 1 => (0x20 + rng.below(0x5f) as u32) as u8 as char,
            // Latin-1 supplement.
            2 => char::from_u32(0xA1 + rng.below(0xFF) as u32).unwrap_or('ß'),
            // Arbitrary BMP scalar, skipping controls and surrogates.
            _ => match char::from_u32(rng.below(0xFFFF) as u32) {
                Some(c) if !c.is_control() => c,
                _ => '网',
            },
        };
        if !c.is_control() {
            s.push(c);
        }
    }
    s
}

// ---------------------------------------------------------------------
// netsim: conservation, determinism, stats invariants
// ---------------------------------------------------------------------

/// Every frame sent over a lossy link is either delivered or
/// dropped — never duplicated into the void or lost untracked.
#[test]
fn frames_conserved_under_loss() {
    let mut rng = SimRng::seed_from_u64(0x01);
    for case in 0..64 {
        let seed = rng.below(1_000);
        let drop_prob = f64_in(&mut rng, 0.0, 0.9);
        let frames = rng.range(1, 200);
        let payload = rng.below(1400) as usize;
        let mut sim = Simulator::new(seed);
        let src = sim.add_node(
            PeriodicSource::new(
                "src",
                MacAddr::local(1),
                MacAddr::local(2),
                payload,
                NanoDur::from_micros(50),
            )
            .with_limit(frames),
        );
        let dst = sim.add_node(CounterSink::new("dst"));
        sim.connect(
            src,
            PortId(0),
            dst,
            PortId(0),
            LinkSpec::gigabit().with_faults(FaultSpec::lossy(drop_prob)),
        );
        sim.run_to_quiescence();
        let c = sim.trace().counters();
        assert_eq!(c.sent, frames, "case {case}");
        assert_eq!(c.delivered + c.dropped, frames, "case {case}");
        assert_eq!(
            sim.node_ref::<CounterSink>(dst).count(),
            c.delivered,
            "case {case}"
        );
    }
}

/// Same seed ⇒ bit-identical counters; different seeds may differ.
#[test]
fn simulation_deterministic() {
    let mut rng = SimRng::seed_from_u64(0x02);
    for case in 0..64 {
        let seed = rng.below(10_000);
        let run = |s| {
            let mut sim = Simulator::new(s);
            let src = sim.add_node(
                PeriodicSource::new(
                    "src",
                    MacAddr::local(1),
                    MacAddr::local(2),
                    100,
                    NanoDur::from_micros(80),
                )
                .with_limit(64)
                .with_jitter(NanoDur::from_micros(30)),
            );
            let dst = sim.add_node(CounterSink::new("dst"));
            sim.connect(
                src,
                PortId(0),
                dst,
                PortId(0),
                LinkSpec::gigabit().with_faults(FaultSpec::lossy(0.2)),
            );
            sim.run_to_quiescence();
            (
                sim.trace().counters(),
                sim.node_ref::<CounterSink>(dst).arrivals().to_vec(),
            )
        };
        assert_eq!(run(seed), run(seed), "case {case}");
    }
}

/// Quantiles stay within [min, max] and are monotone in q.
#[test]
fn sample_set_quantiles_sane() {
    let mut rng = SimRng::seed_from_u64(0x03);
    for case in 0..64 {
        let n = rng.range(1, 200);
        let xs: Vec<f64> = (0..n).map(|_| f64_in(&mut rng, -1e9, 1e9)).collect();
        let mut s = SampleSet::new();
        for &x in &xs {
            s.push(x);
        }
        let min = s.min().unwrap();
        let max = s.max().unwrap();
        let mut last = min;
        for i in 0..=10 {
            let q = s.quantile(i as f64 / 10.0).unwrap();
            assert!(q >= min && q <= max, "case {case}");
            assert!(q >= last, "case {case}");
            last = q;
        }
        let cdf = s.cdf(50);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1, "case {case}");
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9, "case {case}");
    }
}

/// Time arithmetic: quantization floors and never exceeds input.
#[test]
fn quantize_floors() {
    let mut rng = SimRng::seed_from_u64(0x04);
    for case in 0..64 {
        let t = rng.below(u64::MAX / 2);
        let step = rng.range(1, 1_000_000);
        let q = Nanos(t).quantize(NanoDur(step));
        assert!(q.as_nanos() <= t, "case {case}");
        assert_eq!(q.as_nanos() % step, 0, "case {case}");
        assert!(t - q.as_nanos() < step, "case {case}");
    }
}

// ---------------------------------------------------------------------
// rtnet: wire-format totality and roundtrips
// ---------------------------------------------------------------------

/// Parsing arbitrary bytes never panics.
#[test]
fn rt_parse_total() {
    let mut rng = SimRng::seed_from_u64(0x05);
    for _case in 0..256 {
        let bytes = bytes_vec(&mut rng, 0, 64);
        let _ = RtPayload::parse(&bytes);
    }
}

/// Cyclic frames roundtrip for arbitrary field values.
#[test]
fn rt_cyclic_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0x06);
    for case in 0..256 {
        let p = RtPayload::CyclicData {
            frame_id: FrameId(rng.next_u32() as u16),
            cycle: rng.next_u32() as u16,
            status: DataStatus {
                run: rng.chance(0.5),
                problem: rng.chance(0.5),
                primary: rng.chance(0.5),
            },
            data: Bytes::from(bytes_vec(&mut rng, 0, 64)),
        };
        assert_eq!(RtPayload::parse(&p.to_bytes()).unwrap(), p, "case {case}");
    }
}

/// Connect requests roundtrip for arbitrary parameters.
#[test]
fn rt_connect_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0x07);
    for case in 0..256 {
        let p = RtPayload::ConnectReq {
            frame_id: FrameId(rng.next_u32() as u16),
            params: CrParams {
                cycle_time: NanoDur::from_micros(rng.range(1, 1_000_000)),
                watchdog_factor: rng.range(1, 256) as u8,
                output_len: rng.next_u32() as u16,
                input_len: rng.next_u32() as u16,
            },
        };
        assert_eq!(RtPayload::parse(&p.to_bytes()).unwrap(), p, "case {case}");
    }
}

/// A watchdog fed at least every (factor × cycle) never expires.
#[test]
fn watchdog_never_expires_when_fed() {
    let mut rng = SimRng::seed_from_u64(0x08);
    for case in 0..256 {
        let cycle = NanoDur::from_micros(rng.range(100, 10_000));
        let factor = rng.range(1, 10) as u8;
        let feeds = rng.range(2, 50) as usize;
        let mut wd = Watchdog::new(cycle, factor);
        let mut now = Nanos::ZERO;
        wd.feed(now);
        for _ in 0..feeds {
            now += cycle * factor as u64; // exactly at the bound
            assert!(
                !wd.check(now),
                "case {case}: gap equal to timeout must not expire"
            );
            wd.feed(now);
        }
        assert_eq!(wd.expirations(), 0, "case {case}");
    }
}

// ---------------------------------------------------------------------
// xdpsim: verifier totality and runtime safety
// ---------------------------------------------------------------------

fn arb_insn(rng: &mut SimRng) -> Insn {
    const REGS: [Reg; 6] = [Reg::R0, Reg::R1, Reg::R2, Reg::R5, Reg::R6, Reg::R10];
    const SIZES: [Size; 4] = [Size::B, Size::H, Size::W, Size::DW];
    const ALUS: [AluOp; 6] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::And,
        AluOp::Rsh,
    ];
    const CMPS: [CmpOp; 3] = [CmpOp::Eq, CmpOp::Gt, CmpOp::SLt];
    const HELPERS: [Helper; 5] = [
        Helper::KtimeGetNs,
        Helper::MapLookup,
        Helper::RingbufReserve,
        Helper::RingbufSubmit,
        Helper::GetSmpProcessorId,
    ];
    let reg = |rng: &mut SimRng| *rng.pick(&REGS);
    let imm = |rng: &mut SimRng| rng.next_u32() as i32 as i64;
    let off = |rng: &mut SimRng| rng.range(0, 128) as i16 - 64;
    match rng.below(9) {
        0 => Insn::MovImm(reg(rng), imm(rng)),
        1 => Insn::MovReg(reg(rng), reg(rng)),
        2 => Insn::AluImm(*rng.pick(&ALUS), reg(rng), imm(rng)),
        3 => Insn::Load(*rng.pick(&SIZES), reg(rng), reg(rng), off(rng)),
        4 => Insn::Store(*rng.pick(&SIZES), reg(rng), off(rng), reg(rng)),
        5 => Insn::JmpImm(*rng.pick(&CMPS), reg(rng), imm(rng), rng.below(8) as i16),
        6 => Insn::Ja(rng.below(8) as i16),
        7 => Insn::Call(*rng.pick(&HELPERS)),
        _ => Insn::Exit,
    }
}

fn arb_program(rng: &mut SimRng, min_len: usize, max_len: usize) -> Program {
    let n = rng.range(min_len as u64, max_len as u64) as usize;
    Program {
        name: "fuzz".into(),
        insns: (0..n).map(|_| arb_insn(rng)).collect(),
    }
}

/// The verifier never panics, whatever the instruction stream.
#[test]
fn verifier_total() {
    let mut rng = SimRng::seed_from_u64(0x09);
    for _case in 0..512 {
        let prog = arb_program(&mut rng, 0, 40);
        let (maps, _) = standard_maps();
        let _ = verify(&prog, &maps);
    }
}

/// The interpreter never panics either — worst case it traps to
/// XDP_ABORTED (run without verification, belt and braces).
#[test]
fn vm_total() {
    let mut rng = SimRng::seed_from_u64(0x0A);
    for case in 0..512 {
        let prog = arb_program(&mut rng, 1, 40);
        let mut pkt = bytes_vec(&mut rng, 14, 256);
        let seed = rng.next_u64();
        let (mut maps, _) = standard_maps();
        let cm = CostModel::default();
        let mut vm_rng = SimRng::seed_from_u64(seed);
        let r = steelworks::xdpsim::vm::run(
            &prog,
            &mut pkt,
            XdpContext::default(),
            &mut maps,
            &cm,
            0,
            0,
            &mut vm_rng,
        );
        assert!(r.cost.ns.is_finite(), "case {case}");
    }
}

/// Programs that pass the verifier never trap at runtime. This is
/// the verifier's entire contract; it must hold for any accepted
/// program and any packet.
#[test]
fn verified_programs_never_trap() {
    let mut rng = SimRng::seed_from_u64(0x0B);
    for case in 0..512 {
        let prog = arb_program(&mut rng, 1, 40);
        let mut pkt = bytes_vec(&mut rng, 14, 256);
        let seed = rng.next_u64();
        let (mut maps, _) = standard_maps();
        if verify(&prog, &maps).is_ok() {
            let cm = CostModel::default();
            let mut vm_rng = SimRng::seed_from_u64(seed);
            let r = steelworks::xdpsim::vm::run(
                &prog,
                &mut pkt,
                XdpContext::default(),
                &mut maps,
                &cm,
                0,
                0,
                &mut vm_rng,
            );
            assert!(
                r.trap.is_none(),
                "case {case}: verified program trapped: {:?}",
                r.trap
            );
        }
    }
}

// ---------------------------------------------------------------------
// topo: builders, routing, scheduling
// ---------------------------------------------------------------------

/// Every builder yields a connected graph and valid shortest paths
/// between arbitrary client pairs.
#[test]
fn builders_connected_and_routable() {
    let mut rng = SimRng::seed_from_u64(0x0C);
    for case in 0..64 {
        let n = rng.range(2, 40) as usize;
        let a = rng.below(40) as usize;
        let b = rng.below(40) as usize;
        for built in [
            line(n, EdgeAttr::gigabit_local()),
            industrial_ring(n, EdgeAttr::gigabit_local()),
            star(n, EdgeAttr::gigabit_local()),
        ] {
            assert!(built.graph.is_connected(), "case {case}");
            let ca = built.clients[a % built.clients.len()];
            let cb = built.clients[b % built.clients.len()];
            let p = shortest_path(&built.graph, ca, cb, &HopWeight).unwrap();
            assert_eq!(p.nodes.first(), Some(&ca), "case {case}");
            assert_eq!(p.nodes.last(), Some(&cb), "case {case}");
            // Path edges must connect consecutive nodes.
            for (i, e) in p.edges.iter().enumerate() {
                let (x, y, _) = built.graph.edge(*e);
                let (u, v) = (p.nodes[i], p.nodes[i + 1]);
                assert!((x == u && y == v) || (x == v && y == u), "case {case}");
            }
        }
    }
}

/// Whenever the TSN scheduler returns a schedule, the independent
/// validator accepts it.
#[test]
fn schedules_always_validate() {
    let mut rng = SimRng::seed_from_u64(0x0D);
    for case in 0..64 {
        let nflows = rng.range(1, 8) as usize;
        let flows: Vec<FlowSpec> = (0..nflows)
            .map(|i| FlowSpec {
                name: format!("f{i}"),
                period: NanoDur::from_millis(rng.range(1, 5)),
                tx_time: NanoDur::from_micros(rng.range(1, 80)),
                path: vec![(EgressId(rng.below(4) as u32), NanoDur::ZERO)],
            })
            .collect();
        if let Ok(sched) = schedule(&flows, NanoDur::from_micros(10)) {
            assert!(validate(&flows, &sched), "case {case}");
            for (f, off) in flows.iter().zip(&sched.offsets) {
                assert!(*off + f.tx_time <= f.period, "case {case}");
            }
        }
    }
}

/// The ML-aware designer covers every client exactly once and
/// respects its cluster bounds.
#[test]
fn designer_covers_clients() {
    let mut rng = SimRng::seed_from_u64(0x0E);
    for case in 0..64 {
        let n = rng.range(1, 300) as usize;
        let mbps = f64_in(&mut rng, 1.0, 200.0);
        let cfg = DesignConfig::default();
        let d = design(
            n,
            ClientProfile {
                bps_per_client: mbps * 1e6,
                mean_packet: 1200,
            },
            &cfg,
        );
        assert_eq!(d.built.clients.len(), n, "case {case}");
        assert_eq!(d.assignment.len(), n, "case {case}");
        assert!(d.built.graph.is_connected(), "case {case}");
        assert!(d.cluster_size >= 1, "case {case}");
        assert!(d.cluster_size <= cfg.cluster_bounds.1, "case {case}");
    }
}

// ---------------------------------------------------------------------
// corpus: matcher totality and injection consistency
// ---------------------------------------------------------------------

/// The tokenizer/matcher never panic on arbitrary text.
#[test]
fn matcher_total() {
    let mut rng = SimRng::seed_from_u64(0x0F);
    for _case in 0..128 {
        let text = printable_text(&mut rng, 200);
        let toks = tokenize(&text);
        for g in GROUPS {
            count_group(g.terms, &text).unwrap();
        }
        let _ = toks;
    }
}

/// Counting a term in text built from `k` copies yields exactly k.
#[test]
fn exact_injection_count() {
    let mut rng = SimRng::seed_from_u64(0x10);
    for case in 0..128 {
        let k = rng.below(20) as usize;
        let text = vec!["industrial network"; k].join(" filler word ");
        let n = count_group(&["industrial network"], &text).unwrap();
        assert_eq!(n as usize, k, "case {case}");
    }
}

// ---------------------------------------------------------------------
// mlnet / availability: model monotonicity
// ---------------------------------------------------------------------

/// Accuracy is monotone non-decreasing in quality and
/// non-increasing in loss, for both applications.
#[test]
fn accuracy_monotone() {
    let mut rng = SimRng::seed_from_u64(0x11);
    for case in 0..64 {
        let q1 = rng.f64();
        let q2 = rng.f64();
        let l1 = rng.f64();
        let l2 = rng.f64();
        for app in MlApp::ALL {
            let p = app.profile();
            let acc = |q, l| {
                accuracy(
                    &p,
                    &InputDegradation {
                        quality: q,
                        frame_loss: l,
                        jitter: NanoDur::ZERO,
                    },
                )
            };
            let (qlo, qhi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            assert!(acc(qlo, 0.0) <= acc(qhi, 0.0) + 1e-12, "case {case}");
            let (llo, lhi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
            assert!(acc(1.0, lhi) <= acc(1.0, llo) + 1e-12, "case {case}");
        }
    }
}

/// Availability composition laws: parallel ≥ max, series ≤ min.
#[test]
fn availability_composition() {
    let mut rng = SimRng::seed_from_u64(0x12);
    for case in 0..64 {
        let a = rng.f64();
        let b = rng.f64();
        let s = series(&[a, b]);
        let p = parallel(&[a, b]);
        assert!(s <= a.min(b) + 1e-12, "case {case}");
        assert!(p + 1e-12 >= a.max(b), "case {case}");
        assert!((0.0..=1.0).contains(&s), "case {case}");
        assert!(p <= 1.0 + 1e-12, "case {case}");
    }
}

/// Downtime/availability conversions are inverse of each other.
#[test]
fn downtime_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0x13);
    for case in 0..64 {
        let a = rng.f64();
        let d = downtime_per_year(a);
        let a2 = availability_for_downtime(d);
        assert!((a - a2).abs() < 1e-6, "case {case}");
    }
}

// ---------------------------------------------------------------------
// rtnet TSN + safety: gating consistency and PDU totality
// ---------------------------------------------------------------------

/// `next_open` agrees with `is_open`: the instant it returns is
/// open for the class, and nothing between `t` and that instant is.
#[test]
fn gcl_next_open_consistent() {
    let mut rng = SimRng::seed_from_u64(0x14);
    let mut cases = 0;
    while cases < 128 {
        let cycle_us = rng.range(100, 5_000);
        let window_us = rng.range(1, 99);
        let t_us = rng.below(20_000);
        let tc = rng.below(8) as u8;
        let cycle = NanoDur::from_micros(cycle_us);
        let window = NanoDur::from_micros(cycle_us * window_us / 100).max(NanoDur(1));
        if window >= cycle {
            continue; // was prop_assume!(window < cycle)
        }
        cases += 1;
        let gcl = GateControlList::rt_window(Nanos::ZERO, cycle, window);
        let t = Nanos::from_micros(t_us);
        let (open_at, remaining) = gcl.next_open(t, tc);
        assert!(open_at >= t, "case {cases}");
        assert!(
            gcl.is_open(open_at, tc),
            "case {cases}: returned instant must be open"
        );
        assert!(remaining.as_nanos() > 0, "case {cases}");
        // The window it reports stays open to its end (sample a point).
        let mid = open_at + NanoDur(remaining.as_nanos() / 2);
        assert!(gcl.is_open(mid, tc), "case {cases}");
        // And if t itself was open, next_open must not move.
        if gcl.is_open(t, tc) {
            assert_eq!(open_at, t, "case {cases}");
        }
    }
}

/// Safety PDUs: parsing arbitrary bytes never panics, and every
/// single-bit corruption of a valid PDU is rejected.
#[test]
fn safety_pdu_bit_flip_always_detected() {
    let mut rng = SimRng::seed_from_u64(0x15);
    for case in 0..128 {
        let payload = bytes_vec(&mut rng, 0, 32);
        let sol = rng.next_u32() as u16;
        let flip_bit = rng.below(512) as usize;
        let pdu = SafetyPdu {
            sign_of_life: sol,
            payload,
        };
        let mut bytes = pdu.to_bytes();
        assert_eq!(SafetyPdu::parse(&bytes), Some(pdu.clone()), "case {case}");
        let bit = flip_bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        assert_eq!(
            SafetyPdu::parse(&bytes),
            None,
            "case {case}: flipped bit {bit} must break the CRC"
        );
    }
}

/// The TSN switch + GCL end to end: under a random RT window and
/// random frame sizes, RT frames are only ever *sent* inside the
/// window (checked in unit tests) and never lost.
#[test]
fn tas_never_loses_rt_frames() {
    let mut rng = SimRng::seed_from_u64(0x16);
    for case in 0..128 {
        let window_frac = rng.range(10, 90);
        let payload = rng.range(20, 250) as usize;
        let frames = rng.range(5, 40);
        let seed = rng.below(500);
        let mut sim = Simulator::new(seed);
        let cycle = NanoDur::from_millis(1);
        let window = NanoDur(cycle.as_nanos() * window_frac / 100);
        let gcl = GateControlList::rt_window(Nanos::ZERO, cycle, window);
        let src_mac = MacAddr::local(1);
        let dst_mac = MacAddr::local(2);
        let src = sim.add_node(
            PeriodicSource::new("rt", src_mac, dst_mac, payload, cycle)
                .with_vlan(VlanTag::RT)
                .with_limit(frames),
        );
        let sink = sim.add_node(CounterSink::new("sink"));
        let sw = sim.add_node({
            let mut s = TsnSwitch::new("tsn", 4, gcl);
            s.learn_static(dst_mac, PortId(1));
            s
        });
        sim.connect(src, PortId(0), sw, PortId(0), LinkSpec::gigabit());
        sim.connect(sink, PortId(0), sw, PortId(1), LinkSpec::gigabit());
        sim.run_until(Nanos::from_millis(frames + 100));
        assert_eq!(
            sim.node_ref::<CounterSink>(sink).count(),
            frames,
            "case {case}"
        );
    }
}

// ---------------------------------------------------------------------
// dataplane: LPM agrees with a brute-force reference
// ---------------------------------------------------------------------

#[test]
fn lpm_matches_reference() {
    let mut rng = SimRng::seed_from_u64(0x17);
    for case in 0..128 {
        use steelworks::dataplane::prelude::*;
        let nprefixes = rng.range(1, 12) as usize;
        let prefixes: Vec<(u32, u32)> = (0..nprefixes)
            .map(|_| (rng.next_u32(), rng.below(33) as u32))
            .collect();
        let probe = rng.next_u32();
        let mut table = Table::new(
            "lpm",
            vec![Field::EthDst],
            MatchKind::Lpm,
            ActionSpec::drop(),
        );
        for (i, &(value, len)) in prefixes.iter().enumerate() {
            table.insert(Entry {
                keys: vec![TernaryKey::prefix(value as u64, len, 32)],
                priority: 0,
                action: ActionSpec::forward(PortId(i)),
            });
        }
        let mut fs = FieldSet::default();
        fs.set(Field::EthDst, probe as u64);
        let got = table.lookup(&fs).clone();

        // Reference: best (longest) matching prefix, first-inserted
        // wins ties (stable sort in the table).
        let mut best: Option<(u32, usize)> = None;
        for (i, &(value, len)) in prefixes.iter().enumerate() {
            let mask = if len == 0 { 0u32 } else { !0u32 << (32 - len) };
            if probe & mask == value & mask {
                let better = match best {
                    None => true,
                    Some((blen, _)) => len > blen,
                };
                if better {
                    best = Some((len, i));
                }
            }
        }
        match best {
            None => assert!(got.is_drop(), "case {case}"),
            Some((len, _)) => {
                // The chosen entry must have that prefix length and match.
                assert!(!got.is_drop(), "case {case}");
                let port = match got.primitives()[0] {
                    Primitive::Forward(p) => p.0,
                    _ => unreachable!(),
                };
                let (v, l) = prefixes[port];
                assert_eq!(l, len, "case {case}: must pick a longest prefix");
                let mask = if l == 0 { 0u32 } else { !0u32 << (32 - l) };
                assert_eq!(probe & mask, v & mask, "case {case}");
            }
        }
    }
}
