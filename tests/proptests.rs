//! Cross-crate property-based tests (proptest) on the invariants
//! DESIGN.md §6 calls out.

use proptest::prelude::*;
use steac_membist::faultsim::{fault_coverage, random_fault_list};
use steac_membist::{MarchAlgorithm, SramConfig};
use steac_netlist::{stitch_scan, GateKind, NetId, NetlistBuilder, StitchConfig};
use steac_sched::{allocate_session, schedule_sessions, ChipConfig, TestTask};
use steac_sim::{fault, remote, Exec, Logic, PackedLogic, SimProgram, Simulator, Threads, LANES};
use steac_stil::{parse_stil, to_stil_string};
use steac_wrapper::{balance_fixed, balance_soft};

// ---------- wrapper chain balancing ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every internal chain and boundary cell lands exactly once, and the
    /// LPT bound holds for the internal partition.
    #[test]
    fn balance_places_everything(
        chains in prop::collection::vec(1usize..2000, 0..8),
        ins in 0usize..300,
        outs in 0usize..300,
        width in 1usize..12,
    ) {
        let plan = balance_fixed(&chains, ins, outs, width);
        prop_assert_eq!(plan.total_internal_cells(), chains.iter().sum::<usize>());
        prop_assert_eq!(plan.total_boundary_cells(), ins + outs);
        let max_load = plan.chains.iter().map(|c| c.internal_cells()).max().unwrap_or(0);
        let total: usize = chains.iter().sum();
        let longest = chains.iter().copied().max().unwrap_or(0);
        prop_assert!(max_load <= total / width + longest);
    }

    /// Soft rebalancing never loses to the fixed partition, and its test
    /// time is monotone non-increasing in width.
    #[test]
    fn soft_beats_fixed_and_is_monotone(
        chains in prop::collection::vec(1usize..1500, 1..6),
        ins in 0usize..200,
        outs in 0usize..200,
        patterns in 1u64..1000,
    ) {
        let total: usize = chains.iter().sum();
        let mut prev = u64::MAX;
        for width in 1..=8usize {
            let fixed = balance_fixed(&chains, ins, outs, width).test_time(patterns);
            let soft = balance_soft(total, ins, outs, width).test_time(patterns);
            prop_assert!(soft <= fixed, "width {}: soft {} > fixed {}", width, soft, fixed);
            prop_assert!(soft <= prev, "soft time increased at width {}", width);
            prev = soft;
        }
    }
}

// ---------- scheduler ----------

fn arb_task(i: usize, kind: u8, patterns: u64, size: usize, power: f64) -> TestTask {
    match kind % 3 {
        0 => TestTask::scan(
            &format!("c{i}"),
            patterns.max(1),
            &[size.max(1), (size / 2).max(1)],
            (size % 50) + 1,
            (size % 40) + 1,
            kind.is_multiple_of(2),
        )
        .with_power(power),
        1 => TestTask::functional(
            &format!("c{i}"),
            patterns.max(1),
            (size % 60) + 8,
            (size % 30) + 8,
        )
        .with_power(power),
        _ => TestTask::bist(&format!("g{i}"), patterns.max(1) * 100).with_power(power),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every task appears exactly once; session invariants hold.
    #[test]
    fn schedule_invariants(
        seeds in prop::collection::vec((0u8..3, 1u64..5000, 1usize..800, 0.2f64..1.0), 1..7)
    ) {
        let tasks: Vec<TestTask> = seeds
            .iter()
            .enumerate()
            .map(|(i, (k, p, s, pw))| arb_task(i, *k, *p, *s, *pw))
            .collect();
        let config = ChipConfig::default();
        let result = schedule_sessions(&tasks, &config);
        prop_assume!(result.is_ok());
        let schedule = result.unwrap();
        let mut seen: Vec<usize> = schedule
            .sessions
            .iter()
            .flat_map(|s| s.tasks.iter().map(|t| t.task_index))
            .collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..tasks.len()).collect::<Vec<_>>());
        for sess in &schedule.sessions {
            prop_assert!(sess.power <= config.power_limit + 1e-9);
            let pins: usize = sess.tasks.iter().map(|t| t.pins).sum();
            prop_assert!(pins <= sess.data_pins_available);
            prop_assert_eq!(
                sess.makespan,
                sess.tasks.iter().map(|t| t.cycles).max().unwrap_or(0)
            );
        }
        let total = schedule
            .sessions
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.makespan));
        prop_assert_eq!(schedule.total_cycles, total);
    }

    /// Water-filling never exceeds the budget and never allocates below a
    /// task's minimum.
    #[test]
    fn allocation_respects_bounds(
        seeds in prop::collection::vec((0u8..3, 1u64..500, 1usize..500, 0.2f64..1.0), 1..6),
        budget in 30usize..300,
    ) {
        let tasks: Vec<TestTask> = seeds
            .iter()
            .enumerate()
            .map(|(i, (k, p, s, pw))| arb_task(i, *k, *p, *s, *pw))
            .collect();
        let refs: Vec<&TestTask> = tasks.iter().collect();
        if let Some(alloc) = allocate_session(&refs, budget) {
            prop_assert!(alloc.total_pins() <= budget);
            for (t, &p) in tasks.iter().zip(&alloc.pins) {
                prop_assert!(p >= t.min_pins());
                prop_assert!(p <= t.max_pins().max(t.min_pins()));
            }
        }
    }
}

// ---------- STIL round trip ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// print ∘ parse is the identity on generated scan-structure files.
    #[test]
    fn stil_round_trip(
        chains in prop::collection::vec(1usize..5000, 1..5),
        scan_pats in 1u64..100_000,
        func_pats in 0u64..1_000_000,
    ) {
        let mut src = String::from("STIL 1.0;\nSignals { ck In; se In; d In; q Out;");
        for i in 0..chains.len() {
            src.push_str(&format!(" si{i} In {{ ScanIn; }} so{i} Out {{ ScanOut; }}"));
        }
        src.push_str(" }\nSignalGroups { clocks = 'ck'; scan_enables = 'se'; pi = 'd'; po = 'q'; }\n");
        src.push_str("ScanStructures {\n");
        for (i, len) in chains.iter().enumerate() {
            src.push_str(&format!(
                "  ScanChain \"c{i}\" {{ ScanLength {len}; ScanIn si{i}; ScanOut so{i}; }}\n"
            ));
        }
        src.push_str("}\nProcedures { \"load_unload\" { Shift { V { si0=#; ck=P; } } } }\n");
        src.push_str(&format!("Pattern scan {{ Loop {scan_pats} {{ Call \"load_unload\"; }} }}\n"));
        if func_pats > 0 {
            src.push_str(&format!("Pattern func {{ Loop {func_pats} {{ V {{ d=0; ck=P; }} }} }}\n"));
        }
        let parsed = parse_stil(&src).expect("generated STIL parses");
        let printed = to_stil_string(&parsed);
        let reparsed = parse_stil(&printed).expect("printed STIL parses");
        prop_assert_eq!(&reparsed, &parsed);
        let info = steac_stil::CoreTestInfo::from_stil("gen", &parsed).unwrap();
        prop_assert_eq!(info.scan_chains, chains);
        prop_assert_eq!(info.scan_patterns, scan_pats);
        prop_assert_eq!(info.functional_patterns, func_pats);
    }
}

// ---------- March detection ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// March C− detects every randomly generated unlinked standard fault
    /// on random geometries.
    #[test]
    fn march_c_minus_complete_on_random_geometries(
        words in 4usize..128,
        width in 1usize..16,
        seed in 0u64..10_000,
    ) {
        use rand::SeedableRng;
        let cfg = SramConfig::single_port(words, width);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let faults = random_fault_list(&cfg, 8, &mut rng);
        let rep = fault_coverage(&Exec::from_env(), &MarchAlgorithm::march_c_minus(), &cfg, &faults).unwrap();
        prop_assert_eq!(rep.detected, rep.total, "escapes: {:?}", rep.escaped);
    }
}

// ---------- netlist + sim ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scan stitching preserves flop count and keeps chains balanced for
    /// any flop count and chain count.
    #[test]
    fn stitch_preserves_and_balances(flops in 1usize..200, chains in 1usize..9) {
        let mut b = NetlistBuilder::new("m");
        let ck = b.input("ck");
        let d = b.input("d");
        let mut cur = d;
        for _ in 0..flops {
            cur = b.gate(GateKind::Dff, &[cur, ck]);
        }
        b.output("q", cur);
        let mut m = b.finish().unwrap();
        let rep = stitch_scan(&mut m, &StitchConfig::balanced(chains)).unwrap();
        prop_assert_eq!(rep.converted_flops, flops);
        prop_assert_eq!(rep.chain_lengths.iter().sum::<usize>(), flops);
        prop_assert_eq!(m.flop_count(), flops);
        let max = rep.chain_lengths.iter().max().unwrap();
        let min = rep.chain_lengths.iter().min().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// De Morgan holds in the 4-value algebra for all value pairs.
    #[test]
    fn de_morgan_in_four_valued_logic(a in 0u8..4, b in 0u8..4) {
        let lv = |x: u8| match x {
            0 => Logic::Zero,
            1 => Logic::One,
            2 => Logic::X,
            _ => Logic::Z,
        };
        let (a, b) = (lv(a), lv(b));
        prop_assert_eq!(a.and(b).not(), a.not().or(b.not()));
        prop_assert_eq!(a.or(b).not(), a.not().and(b.not()));
    }
}

// ---------- packed/scalar equivalence ----------

fn lv(x: u8) -> Logic {
    match x % 4 {
        0 => Logic::Zero,
        1 => Logic::One,
        2 => Logic::X,
        _ => Logic::Z,
    }
}

/// Builds a small random-but-deterministic module from seed tuples: four
/// data inputs plus a clock, a mix of combinational gates and DFFs (no
/// feedback, so always well-formed), with the last nets as outputs.
fn random_module(seeds: &[(u8, u8, u8, u8)]) -> steac_netlist::Module {
    let mut b = NetlistBuilder::new("rand_mod");
    let ck = b.input("ck");
    let mut pool: Vec<NetId> = (0..4).map(|i| b.input(&format!("in{i}"))).collect();
    for (gi, &(kind, s1, s2, s3)) in seeds.iter().enumerate() {
        let pick = |s: u8| pool[s as usize % pool.len()];
        let (a, c, d) = (pick(s1), pick(s2), pick(s3));
        let out = match kind % 7 {
            0 => b.gate(GateKind::Inv, &[a]),
            1 => b.gate(GateKind::And2, &[a, c]),
            2 => b.gate(GateKind::Or2, &[a, c]),
            3 => b.gate(GateKind::Xor2, &[a, c]),
            4 => b.gate(GateKind::Nand2, &[a, c]),
            5 => b.gate(GateKind::Mux2, &[a, c, d]),
            _ => b.gate(GateKind::Dff, &[a, ck]),
        };
        pool.push(out);
        let _ = gi;
    }
    let outs: Vec<NetId> = pool.iter().rev().take(3).copied().collect();
    for (i, &n) in outs.iter().enumerate() {
        b.output(&format!("out{i}"), n);
    }
    b.finish().expect("random module is structurally valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For random gate inputs, each `PackedLogic` lane op equals the
    /// corresponding scalar `Logic` op — the invariant the whole packed
    /// kernel rests on.
    #[test]
    fn packed_lane_ops_equal_scalar(
        avals in prop::collection::vec(0u8..4, LANES..LANES + 1),
        bvals in prop::collection::vec(0u8..4, LANES..LANES + 1),
        svals in prop::collection::vec(0u8..4, LANES..LANES + 1),
    ) {
        let a_s: Vec<Logic> = avals.iter().map(|&x| lv(x)).collect();
        let b_s: Vec<Logic> = bvals.iter().map(|&x| lv(x)).collect();
        let s_s: Vec<Logic> = svals.iter().map(|&x| lv(x)).collect();
        let a = PackedLogic::<1>::from_lanes(&a_s);
        let b = PackedLogic::<1>::from_lanes(&b_s);
        let s = PackedLogic::<1>::from_lanes(&s_s);
        for lane in 0..LANES {
            let (x, y, z) = (a_s[lane], b_s[lane], s_s[lane]);
            prop_assert_eq!(a.and(b).lane(lane), x.and(y));
            prop_assert_eq!(a.or(b).lane(lane), x.or(y));
            prop_assert_eq!(a.xor(b).lane(lane), x.xor(y));
            prop_assert_eq!(a.not().lane(lane), x.not());
            prop_assert_eq!(
                PackedLogic::mux(a, b, s).lane(lane),
                Logic::mux(x, y, z)
            );
        }
        // Round trip through the planes loses nothing.
        prop_assert_eq!(PackedLogic::from_lanes(&a.to_lanes()), a);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A random small module's 64 lanes, settled in one batch, equal 64
    /// independent scalar `settle` runs (including a clock pulse through
    /// any DFFs).
    #[test]
    fn settle_batch_lanes_equal_scalar_runs(
        seeds in prop::collection::vec((0u8..7, 0u8..32, 0u8..32, 0u8..32), 3..16),
        stim in prop::collection::vec(0u8..4, 4 * LANES..4 * LANES + 1),
    ) {
        let m = random_module(&seeds);
        let pins: Vec<NetId> = (0..4)
            .map(|i| m.port(&format!("in{i}")).unwrap().net)
            .collect();
        let vectors: Vec<Vec<Logic>> = (0..LANES)
            .map(|l| (0..4).map(|i| lv(stim[l * 4 + i])).collect())
            .collect();

        let mut batch: Simulator = Simulator::new(&m).unwrap();
        batch.set_by_name("ck", Logic::Zero).unwrap();
        for (i, &pin) in pins.iter().enumerate() {
            let lanes: Vec<Logic> = vectors.iter().map(|v| v[i]).collect();
            batch.set_lanes(pin, &lanes);
        }
        batch.settle().unwrap();
        batch.clock_cycle_by_name("ck").unwrap();
        for (lane, vector) in vectors.iter().enumerate() {
            let mut scalar: Simulator = Simulator::new(&m).unwrap();
            scalar.set_by_name("ck", Logic::Zero).unwrap();
            for (&pin, &v) in pins.iter().zip(vector) {
                scalar.set(pin, v);
            }
            scalar.settle().unwrap();
            scalar.clock_cycle_by_name("ck").unwrap();
            prop_assert_eq!(
                batch.outputs_lane(lane),
                scalar.outputs(),
                "lane {} diverged from its scalar run",
                lane
            );
        }
    }

    /// PPSFP grading (lane 0 good machine + up to 255 per-lane fault
    /// forces per pass, with dropping) reports exactly the faults the
    /// serial one-simulation-per-fault reference reports.
    #[test]
    fn ppsfp_grading_equals_serial(
        seeds in prop::collection::vec((0u8..7, 0u8..32, 0u8..32, 0u8..32), 3..14),
        stim in prop::collection::vec(0u8..2, 12..13),
    ) {
        let m = random_module(&seeds);
        let pins: Vec<NetId> = (0..4)
            .map(|i| m.port(&format!("in{i}")).unwrap().net)
            .collect();
        let vectors: Vec<Vec<Logic>> = (0..3)
            .map(|k| (0..4).map(|i| lv(stim[k * 4 + i] % 2)).collect())
            .collect();
        let faults = fault::enumerate_faults(&m);
        let packed = fault::grade_vectors(&Exec::from_env(), &m, &faults, &pins, &vectors).unwrap();
        let serial = fault::fault_coverage_serial(&m, &faults, |sim| {
            let mut obs = Vec::new();
            for vector in &vectors {
                for (&pin, &v) in pins.iter().zip(vector) {
                    sim.set(pin, v);
                }
                sim.settle()?;
                obs.extend(sim.outputs());
            }
            Ok(obs)
        })
        .unwrap();
        prop_assert_eq!(packed.detected, serial.detected);
        prop_assert_eq!(&packed.undetected, &serial.undetected);
    }
}

// ---------- fault models vs scalar oracles ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Packed transition/delay grading (launch–capture pairs, lane-0
    /// good machine, conditional stale forces) reports exactly the
    /// faults the one-scalar-simulation-per-fault reference reports, on
    /// random modules — including sequential ones — and random
    /// launch/capture walks. The fault list is cycled to 1–600 entries,
    /// so it may fill up to three 255-fault passes.
    #[test]
    fn packed_transition_grading_equals_serial(
        seeds in prop::collection::vec((0u8..7, 0u8..32, 0u8..32, 0u8..32), 3..14),
        stim in prop::collection::vec(0u8..2, 16..17),
        len in 1usize..601,
    ) {
        use steac_sim::models::transition;
        let m = random_module(&seeds);
        let pins: Vec<NetId> = (0..4)
            .map(|i| m.port(&format!("in{i}")).unwrap().net)
            .collect();
        let vectors: Vec<Vec<Logic>> = (0..4)
            .map(|k| (0..4).map(|i| lv(stim[k * 4 + i] % 2)).collect())
            .collect();
        let faults: Vec<_> = transition::enumerate_transition_faults(&m)
            .into_iter()
            .cycle()
            .take(len)
            .collect();
        let packed =
            transition::grade_transitions(&Exec::from_env(), &m, &faults, &pins, &vectors)
                .unwrap();
        let serial =
            transition::grade_transitions_serial(&m, &faults, &pins, &vectors).unwrap();
        prop_assert_eq!(packed.detected, serial.detected);
        prop_assert_eq!(&packed.undetected, &serial.undetected);
    }

    /// Packed bridging grading (good-machine wired values, paired
    /// per-lane forces) matches its scalar reference the same way, on a
    /// fault list cycled to 1–600 entries.
    #[test]
    fn packed_bridging_grading_equals_serial(
        seeds in prop::collection::vec((0u8..7, 0u8..32, 0u8..32, 0u8..32), 3..14),
        stim in prop::collection::vec(0u8..2, 12..13),
        len in 1usize..601,
    ) {
        use steac_sim::models::bridging;
        let m = random_module(&seeds);
        let pins: Vec<NetId> = (0..4)
            .map(|i| m.port(&format!("in{i}")).unwrap().net)
            .collect();
        let vectors: Vec<Vec<Logic>> = (0..3)
            .map(|k| (0..4).map(|i| lv(stim[k * 4 + i] % 2)).collect())
            .collect();
        let faults = bridging::enumerate_bridges(&m).unwrap();
        prop_assume!(!faults.is_empty());
        let faults: Vec<_> = faults.into_iter().cycle().take(len).collect();
        let packed =
            bridging::grade_bridges(&Exec::from_env(), &m, &faults, &pins, &vectors).unwrap();
        let serial = bridging::grade_bridges_serial(&m, &faults, &pins, &vectors).unwrap();
        prop_assert_eq!(packed.detected, serial.detected);
        prop_assert_eq!(&packed.undetected, &serial.undetected);
    }
}

// ---------- optimizer equivalence ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The optimizer is the raw program under a slot permutation, and
    /// semantics-preserving on arbitrary netlists: the optimized program
    /// has the raw one's instructions, flops and latches at the same
    /// indices once its slots are mapped back to nets, and produces
    /// bit-identical outputs to the unoptimized compile on all 64 lanes —
    /// including under active per-lane forces on a random port net (the
    /// PPSFP fault-injection mechanism) and through clock cycles.
    #[test]
    fn optimized_program_bit_exact_with_forces(
        seeds in prop::collection::vec((0u8..7, 0u8..32, 0u8..32, 0u8..32), 3..16),
        stim in prop::collection::vec(0u8..4, 4 * LANES..4 * LANES + 1),
        force_pick in 0usize..7,
        force_mask in 1u64..u64::MAX,
        force_val in 0u8..2,
    ) {
        use std::sync::Arc;
        use steac_sim::program::{FlopInstr, LatchInstr, NO_SLOT};
        let m = random_module(&seeds);
        let ports: Vec<&str> = vec!["in0", "in1", "in2", "in3", "out0", "out1", "out2"];
        let force_net = m.port(ports[force_pick % ports.len()]).unwrap().net;
        let raw = SimProgram::compile_unoptimized(&m).unwrap();
        let mut opt = raw.clone();
        steac_sim::opt::optimize(&mut opt);
        prop_assert!(opt.opt.scheduled);

        // Raw slots are net ids; map the optimized slots back to nets.
        let net = |s: u32| if s == NO_SLOT { s } else { opt.net_of_slot(s).0 };
        prop_assert_eq!(opt.comb.len(), raw.comb.len());
        prop_assert_eq!(opt.opt.instrs_after as usize, raw.comb.len());
        for (k, (o, r)) in opt.comb.iter().zip(&raw.comb).enumerate() {
            let mut back = *o;
            for s in &mut back.ins[..o.op.arity()] {
                *s = net(*s);
            }
            back.out = net(o.out);
            prop_assert_eq!(back, *r, "instruction {}", k);
        }
        prop_assert_eq!(opt.flops.len(), raw.flops.len());
        for (o, r) in opt.flops.iter().zip(&raw.flops) {
            let back = FlopInstr {
                d: net(o.d),
                si: net(o.si),
                se: net(o.se),
                ck: net(o.ck),
                rstn: net(o.rstn),
                q: net(o.q),
                ..*o
            };
            prop_assert_eq!(back, *r);
        }
        prop_assert_eq!(opt.latches.len(), raw.latches.len());
        for (o, r) in opt.latches.iter().zip(&raw.latches) {
            let back = LatchInstr {
                d: net(o.d),
                en: net(o.en),
                q: net(o.q),
                ..*o
            };
            prop_assert_eq!(back, *r);
        }

        let pins: Vec<NetId> = (0..4)
            .map(|i| m.port(&format!("in{i}")).unwrap().net)
            .collect();
        let run = |program: Arc<SimProgram>| -> Result<Vec<Vec<Logic>>, steac_sim::SimError> {
            let mut sim: Simulator = Simulator::from_program(program);
            sim.set_by_name("ck", Logic::Zero)?;
            for (i, &pin) in pins.iter().enumerate() {
                let lanes: Vec<Logic> =
                    (0..LANES).map(|l| lv(stim[l * 4 + i])).collect();
                sim.set_lanes(pin, &lanes);
            }
            for lane in 0..LANES {
                if force_mask >> lane & 1 == 1 {
                    sim.force_lane(force_net, lane, lv(force_val));
                }
            }
            sim.settle()?;
            let settled: Vec<Vec<Logic>> =
                (0..LANES).map(|l| sim.outputs_lane(l)).collect();
            sim.clock_cycle_by_name("ck")?;
            let clocked: Vec<Vec<Logic>> =
                (0..LANES).map(|l| sim.outputs_lane(l)).collect();
            Ok(settled.into_iter().chain(clocked).collect())
        };
        prop_assert_eq!(run(Arc::new(opt)).unwrap(), run(Arc::new(raw)).unwrap());
    }
}

// ---------- fast vs checked settle on sequential designs ----------

/// Builds a random sequential module from seed tuples: two input clocks
/// (`ck0`, `ck1`) and one derived clock (`derived` picks a flop's Q or
/// an AND of `ck1` with a data input), four data inputs, a reset input
/// `rst` and a scan enable `se`. Each seed adds a gate, a `Dff`, a
/// `DffR` or `SdffR` (reset from `rst`, from an OR of `rst` with another
/// net, or from another net directly), an `Sdff`, or a `Latch`; each
/// flop takes one of the three clocks, and the scan flops form one
/// chain (scan-in = the previous scan flop's Q). Two feedback nets join
/// the pool up front and are driven last by `Dff`s, so an element can
/// read the Q of a flop that comes after it in cell order. Returns the
/// module and every flop's Q net.
fn random_sequential_module(
    derived: u8,
    seeds: &[(u8, u8, u8, u8)],
) -> (steac_netlist::Module, Vec<NetId>) {
    let mut b = NetlistBuilder::new("rand_seq");
    let ck0 = b.input("ck0");
    let ck1 = b.input("ck1");
    let rst = b.input("rst");
    let se = b.input("se");
    let mut pool: Vec<NetId> = (0..4).map(|i| b.input(&format!("in{i}"))).collect();
    let feedback = [b.net("fb0"), b.net("fb1")];
    pool.extend(feedback);
    let mut qs = Vec::new();
    let data = pool[usize::from(derived / 2) % 4];
    let derived_ck = if derived.is_multiple_of(2) {
        let q = b.gate(GateKind::Dff, &[data, ck0]);
        qs.push(q);
        q
    } else {
        b.gate(GateKind::And2, &[ck1, data])
    };
    let clocks = [ck0, ck1, derived_ck];
    let mut chain = None;
    for &(kind, s1, s2, s3) in seeds {
        let pick = |s: u8| pool[usize::from(s) % pool.len()];
        let (a, c, d) = (pick(s1), pick(s2), pick(s3));
        let ck = clocks[usize::from(s3) % 3];
        let reset = |b: &mut NetlistBuilder| match s2 % 3 {
            0 => rst,
            1 => b.gate(GateKind::Or2, &[rst, c]),
            _ => c,
        };
        let out = match kind % 10 {
            0 => b.gate(GateKind::Inv, &[a]),
            1 => b.gate(GateKind::And2, &[a, c]),
            2 => b.gate(GateKind::Xor2, &[a, c]),
            3 => b.gate(GateKind::Nand2, &[a, c]),
            4 => b.gate(GateKind::Mux2, &[a, c, d]),
            5 => b.gate(GateKind::Dff, &[a, ck]),
            6 => {
                let rstn = reset(&mut b);
                b.gate(GateKind::DffR, &[a, ck, rstn])
            }
            7 => b.gate(GateKind::Sdff, &[a, chain.unwrap_or(d), se, ck]),
            8 => {
                let rstn = reset(&mut b);
                b.gate(GateKind::SdffR, &[a, chain.unwrap_or(d), se, ck, rstn])
            }
            _ => b.gate(GateKind::Latch, &[a, c]),
        };
        if (5..=8).contains(&(kind % 10)) {
            qs.push(out);
        }
        if (7..=8).contains(&(kind % 10)) {
            chain = Some(out);
        }
        pool.push(out);
    }
    for (i, &fb) in feedback.iter().enumerate() {
        b.gate_into(GateKind::Dff, &[pool[pool.len() - 1 - i], clocks[i]], fb);
        qs.push(fb);
    }
    let outs: Vec<NetId> = pool.iter().rev().take(3).copied().collect();
    for (i, &n) in outs.iter().enumerate() {
        b.output(&format!("out{i}"), n);
    }
    let m = b
        .finish()
        .expect("random sequential module is structurally valid");
    (m, qs)
}

/// 64 lane values: mostly 0 and 1, with an X or a Z on one lane in eight.
fn random_lanes(rng: &mut rand::rngs::StdRng) -> Vec<Logic> {
    use rand::Rng;
    (0..LANES)
        .map(|_| match rng.gen_range(0u8..8) {
            0..=2 => Logic::Zero,
            3..=5 => Logic::One,
            6 => Logic::X,
            _ => Logic::Z,
        })
        .collect()
}

/// Drives `cycles` clock cycles of seeded stimulus through `program` and
/// logs every settle: all lanes of every output and flop Q (`qs`), or
/// the error that ended the run. Each cycle sets the data inputs, forces
/// a random mask of lanes of a random flop Q, pulses both input clocks
/// (some lanes go to X instead of 1, or stay 0), then clears the forces,
/// unforces that Q or sets it, and settles once more.
fn sequential_trace(
    program: &std::sync::Arc<SimProgram>,
    m: &steac_netlist::Module,
    qs: &[NetId],
    cycles: usize,
    seed: u64,
) -> Vec<Result<Vec<PackedLogic>, steac_sim::SimError>> {
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let port = |name: &str| m.port(name).expect("port exists").net;
    let clocks = [port("ck0"), port("ck1")];
    let data = ["in0", "in1", "in2", "in3", "rst", "se"].map(port);
    let observed: Vec<NetId> = m
        .ports_with_dir(steac_netlist::PortDir::Output)
        .map(|p| p.net)
        .chain(qs.iter().copied())
        .collect();
    let mut sim: Simulator = Simulator::from_program(std::sync::Arc::clone(program));
    let mut log = Vec::new();
    let mut settle = |sim: &mut Simulator| {
        let r = sim
            .settle()
            .map(|()| observed.iter().map(|&n| sim.get_packed(n)).collect());
        let ok = r.is_ok();
        log.push(r);
        ok
    };
    for _ in 0..cycles {
        for pin in data {
            sim.set_lanes(pin, &random_lanes(&mut rng));
        }
        let q = qs[rng.gen_range(0..qs.len())];
        let v = Logic::from(rng.gen_bool(0.5));
        let mask = rng.next_u64();
        for lane in (0..LANES).filter(|l| mask >> l & 1 == 1) {
            sim.force_lane(q, lane, v);
        }
        for high in [false, true, false] {
            for ck in clocks {
                let lanes: Vec<Logic> = (0..LANES)
                    .map(|_| match (high, rng.gen_range(0u8..8)) {
                        (false, _) | (true, 0) => Logic::Zero,
                        (true, 1) => Logic::X,
                        _ => Logic::One,
                    })
                    .collect();
                sim.set_lanes(ck, &lanes);
            }
            if !settle(&mut sim) {
                return log;
            }
        }
        match rng.gen_range(0u8..3) {
            0 => sim.clear_forces(),
            1 => sim.unforce(q),
            _ => sim.set_lanes(q, &random_lanes(&mut rng)),
        }
        if !settle(&mut sim) {
            return log;
        }
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scheduled settle of the optimized program leaves every lane
    /// of every output and flop Q where the checked settle of the
    /// unoptimized program does, settle after settle, on random designs
    /// with async resets, a scan chain, latches and three clocks (one
    /// derived), under per-lane forces on flop Qs that are then
    /// cleared, removed or overwritten; a settle that fails must fail
    /// the same way on both.
    #[test]
    fn fast_settle_equals_checked_on_sequential_designs(
        derived in 0u8..8,
        seeds in prop::collection::vec((0u8..10, 0u8..32, 0u8..32, 0u8..32), 4..24),
        cycles in 3usize..6,
        stim in 0u64..u64::MAX,
    ) {
        use std::sync::Arc;
        let (m, qs) = random_sequential_module(derived, &seeds);
        let raw = Arc::new(SimProgram::compile_unoptimized(&m).unwrap());
        let opt = Arc::new(SimProgram::compile(&m).unwrap());
        prop_assert!(!raw.opt.scheduled && opt.opt.scheduled);
        let checked = sequential_trace(&raw, &m, &qs, cycles, stim);
        let fast = sequential_trace(&opt, &m, &qs, cycles, stim);
        prop_assert_eq!(fast, checked);
    }
}

// ---------- lane-width invariance ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// PPSFP grading at its one 256-lane width reports exactly what the
    /// one-simulation-per-fault oracle reports — the whole report:
    /// coverage, escapes and their order — on random modules whose fault
    /// list is cycled to 256–600 entries, so every list fills more than
    /// one 255-fault pass and the merge crosses pass boundaries.
    #[test]
    fn grading_is_lane_width_invariant(
        seeds in prop::collection::vec((0u8..7, 0u8..32, 0u8..32, 0u8..32), 3..14),
        stim in prop::collection::vec(0u8..2, 12..13),
        len in 256usize..601,
    ) {
        let m = random_module(&seeds);
        let pins: Vec<NetId> = (0..4)
            .map(|i| m.port(&format!("in{i}")).unwrap().net)
            .collect();
        let vectors: Vec<Vec<Logic>> = (0..3)
            .map(|k| (0..4).map(|i| lv(stim[k * 4 + i] % 2)).collect())
            .collect();
        let faults: Vec<fault::Fault> =
            fault::enumerate_faults(&m).into_iter().cycle().take(len).collect();
        prop_assert!(faults.len() > fault::FAULTS_PER_PASS);
        let packed =
            fault::grade_vectors(&Exec::serial(), &m, &faults, &pins, &vectors).unwrap();
        let serial = fault::fault_coverage_serial(&m, &faults, |sim| {
            let mut obs = Vec::new();
            for vector in &vectors {
                for (&pin, &v) in pins.iter().zip(vector) {
                    sim.set(pin, v);
                }
                sim.settle()?;
                obs.extend(sim.outputs());
            }
            Ok(obs)
        })
        .unwrap();
        prop_assert_eq!(&packed, &serial);
    }

    /// The 64-lane batched player reports exactly what the scalar
    /// player reports for each pattern played alone from power-on,
    /// failing expectations included: packing patterns into lanes,
    /// three chunks and padding lanes never change a verdict.
    #[test]
    fn playback_is_lane_width_invariant(
        seeds in prop::collection::vec((0u8..7, 0u8..32, 0u8..32, 0u8..32), 3..10),
        data in prop::collection::vec(0u8..4, 150 * 4..150 * 4 + 1),
    ) {
        let m = random_module(&seeds);
        let pins: Vec<String> = (0..4)
            .map(|i| format!("in{i}"))
            .chain(std::iter::once("ck".to_string()))
            .chain(std::iter::once("out0".to_string()))
            .collect();
        let patterns: Vec<steac_pattern::CyclePattern> = (0..150)
            .map(|k| {
                let mut p = steac_pattern::CyclePattern::new(pins.clone());
                let mut row: Vec<steac_pattern::PinState> = (0..4)
                    .map(|i| steac_pattern::PinState::from_drive(lv(data[k * 4 + i] % 2)))
                    .collect();
                row.push(steac_pattern::PinState::Pulse);
                row.push(if data[k * 4].is_multiple_of(2) {
                    steac_pattern::PinState::ExpectL
                } else {
                    steac_pattern::PinState::ExpectH
                });
                p.push_cycle(row).unwrap();
                p
            })
            .collect();
        let refs: Vec<&steac_pattern::CyclePattern> = patterns.iter().collect();
        let sim: Simulator = Simulator::new(&m).unwrap();
        let batch =
            steac_pattern::apply_cycle_patterns_batch(&Exec::serial(), &sim, &refs).unwrap();
        prop_assert_eq!(batch.reports.len(), patterns.len());
        for (k, (p, report)) in patterns.iter().zip(&batch.reports).enumerate() {
            let alone = steac_pattern::apply_cycle_pattern(&mut sim.clone(), p).unwrap();
            prop_assert_eq!(report, &alone, "pattern {}", k);
        }
    }

    /// The 256-lane March walk grades exactly like one scalar walk per
    /// fault — coverage, escapes and their order — on fault lists that
    /// fill more than one walk.
    #[test]
    fn march_grading_is_lane_width_invariant(
        seed in 0u64..1000,
        per_class in 43usize..60,
    ) {
        use rand::SeedableRng;
        let cfg = SramConfig::single_port(32, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let faults = random_fault_list(&cfg, per_class, &mut rng);
        prop_assert!(faults.len() > steac_membist::FAULTS_PER_WALK);
        let alg = MarchAlgorithm::mats_plus();
        let packed = fault_coverage(&Exec::serial(), &alg, &cfg, &faults).unwrap();
        let serial = steac_membist::faultsim::fault_coverage_serial(&alg, &cfg, &faults);
        prop_assert_eq!(&packed, &serial);
    }
}

// ---------- wire round trip ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode → decode is the identity on compiled programs — ports,
    /// instructions and sequential side tables all survive the wire —
    /// over arbitrary generated netlists; and every strict prefix of the
    /// encoding fails with a typed error instead of panicking (explicit
    /// counts plus the trailing-bytes check make partial decodes
    /// impossible).
    #[test]
    fn sim_program_wire_round_trip(
        seeds in prop::collection::vec((0u8..7, 0u8..32, 0u8..32, 0u8..32), 1..24),
        old_version in 0u16..steac_sim::wire::WIRE_VERSION,
    ) {
        let m = random_module(&seeds);
        let p = steac_sim::SimProgram::compile(&m).unwrap();
        let bytes = steac_sim::wire::encode_program(&p);
        let back = steac_sim::wire::decode_program(&bytes).unwrap();
        prop_assert_eq!(&back, &p);
        prop_assert_eq!(back.port("in0").map(|port| port.net), p.port("in0").map(|port| port.net));
        for cut in 0..bytes.len() {
            prop_assert!(steac_sim::wire::decode_program(&bytes[..cut]).is_err(), "prefix {}", cut);
        }
        // Every older format version is rejected with the typed error —
        // v2 streams carry slot tables and optimizer records a v1 reader
        // would misparse, so there is no silent downgrade path.
        let mut stale = bytes.clone();
        stale[4..6].copy_from_slice(&old_version.to_le_bytes());
        let rejected = matches!(
            steac_sim::wire::decode_program(&stale),
            Err(steac_sim::WireError::UnsupportedVersion { found, .. }) if found == old_version
        );
        prop_assert!(rejected, "version {} must be rejected", old_version);
    }
}

// ---------- sharded / single-thread bit-exactness ----------

/// 130 playback patterns (3 chunks) for a `random_module`: drive
/// in0..3, pulse ck and expect fixed values on out0 — some expectations
/// fail, and the failure logs must merge identically at every thread
/// count and wherever the stream ends.
fn expect_playback_patterns(data: &[u8]) -> Vec<steac_pattern::CyclePattern> {
    let pins: Vec<String> = (0..4)
        .map(|i| format!("in{i}"))
        .chain(std::iter::once("ck".to_string()))
        .chain(std::iter::once("out0".to_string()))
        .collect();
    (0..130)
        .map(|k| {
            let mut p = steac_pattern::CyclePattern::new(pins.clone());
            let mut row: Vec<steac_pattern::PinState> = (0..4)
                .map(|i| steac_pattern::PinState::from_drive(lv(data[k * 4 + i] % 2)))
                .collect();
            row.push(steac_pattern::PinState::Pulse);
            row.push(if data[k * 4].is_multiple_of(2) {
                steac_pattern::PinState::ExpectL
            } else {
                steac_pattern::PinState::ExpectH
            });
            p.push_cycle(row).unwrap();
            p
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded PPSFP grading is bit-exact against the single-threaded
    /// packed loop — detected counts AND the order of `undetected` — for
    /// random modules and full fault lists at every thread count 1..8.
    #[test]
    fn sharded_grading_bit_exact_at_every_thread_count(
        seeds in prop::collection::vec((0u8..7, 0u8..32, 0u8..32, 0u8..32), 3..14),
        stim in prop::collection::vec(0u8..2, 12..13),
    ) {
        let m = random_module(&seeds);
        let pins: Vec<NetId> = (0..4)
            .map(|i| m.port(&format!("in{i}")).unwrap().net)
            .collect();
        let vectors: Vec<Vec<Logic>> = (0..3)
            .map(|k| (0..4).map(|i| lv(stim[k * 4 + i] % 2)).collect())
            .collect();
        let faults = fault::enumerate_faults(&m);
        let baseline =
            fault::grade_vectors(&Exec::serial(), &m, &faults, &pins, &vectors).unwrap();
        for t in 1..=8 {
            let exec = Exec::threads(Threads::exact(t));
            let sharded =
                fault::grade_vectors(&exec, &m, &faults, &pins, &vectors).unwrap();
            prop_assert_eq!(&sharded, &baseline, "{} threads", t);
        }
    }

    /// Sharded batched playback produces byte-identical `MismatchReport`s
    /// (compare counts, mismatch tuples, order) at every thread count
    /// 1..8, including deliberately failing expectations.
    #[test]
    fn sharded_playback_bit_exact_at_every_thread_count(
        seeds in prop::collection::vec((0u8..7, 0u8..32, 0u8..32, 0u8..32), 3..12),
        data in prop::collection::vec(0u8..4, 130 * 4..130 * 4 + 1),
    ) {
        let m = random_module(&seeds);
        // Three output ports out0..2 exist on every random module.
        let patterns = expect_playback_patterns(&data);
        let refs: Vec<&steac_pattern::CyclePattern> = patterns.iter().collect();
        let sim: Simulator = Simulator::new(&m).unwrap();
        let baseline =
            steac_pattern::apply_cycle_patterns_batch(&Exec::serial(), &sim, &refs)
                .unwrap();
        for t in 1..=8 {
            let exec = Exec::threads(Threads::exact(t));
            let sharded =
                steac_pattern::apply_cycle_patterns_batch(&exec, &sim, &refs)
                    .unwrap();
            prop_assert_eq!(&sharded, &baseline, "{} threads", t);
        }
    }

    /// Streaming an **arbitrary** prefix of the set produces
    /// byte-identical `MismatchReport`s — content AND order — to the
    /// materialized batch's first reports: wherever the stream ends, and
    /// so wherever its last chunk is cut, a chunk boundary can never
    /// move, add, drop or reorder a mismatch-log entry or an escape, at
    /// any thread count.
    #[test]
    fn streaming_chunk_boundaries_never_change_report_order(
        seeds in prop::collection::vec((0u8..7, 0u8..32, 0u8..32, 0u8..32), 3..12),
        data in prop::collection::vec(0u8..4, 130 * 4..130 * 4 + 1),
        prefix in 0usize..131,
        threads in 1usize..5,
    ) {
        let m = random_module(&seeds);
        let patterns = expect_playback_patterns(&data);
        let refs: Vec<&steac_pattern::CyclePattern> = patterns.iter().collect();
        let sim: Simulator = Simulator::new(&m).unwrap();
        let baseline =
            steac_pattern::apply_cycle_patterns_batch(&Exec::serial(), &sim, &refs)
                .unwrap();
        let exec = Exec::threads(Threads::exact(threads));
        let mut streamed = Vec::new();
        let run = steac_pattern::stream_cycle_patterns(
            &exec,
            &sim,
            patterns[..prefix].iter().cloned(),
            |r| streamed.push(r),
        ).unwrap();
        prop_assert_eq!(run.patterns, prefix);
        prop_assert_eq!(
            &streamed[..], &baseline.reports[..prefix],
            "prefix {} on {} threads", prefix, threads
        );
    }

    /// Sharded March fault grading matches the single-threaded walk —
    /// coverage AND escape order — at every thread count 1..8.
    #[test]
    fn sharded_march_bit_exact_at_every_thread_count(
        seed in 0u64..1000,
        per_class in 8usize..24,
    ) {
        use rand::SeedableRng;
        let cfg = SramConfig::single_port(32, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let faults =
            steac_membist::faultsim::random_fault_list(&cfg, per_class, &mut rng);
        let alg = MarchAlgorithm::mats_plus();
        let baseline = steac_membist::faultsim::fault_coverage(
            &Exec::serial(), &alg, &cfg, &faults).unwrap();
        for t in 1..=8 {
            let exec = Exec::threads(Threads::exact(t));
            let sharded = steac_membist::faultsim::fault_coverage(
                &exec, &alg, &cfg, &faults).unwrap();
            prop_assert_eq!(&sharded, &baseline, "{} threads", t);
        }
    }
}

// ---------- remote envelope codec ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode→decode is the identity over arbitrary ids and payloads —
    /// for the strict buffer codec and the streaming reader alike — and
    /// every strict prefix of a frame fails with a typed error,
    /// mirroring the `wire.rs` truncation sweeps at the transport
    /// layer.
    #[test]
    fn envelope_round_trips_and_rejects_every_prefix(
        request_id in 0u64..u64::MAX,
        payload in prop::collection::vec(0u8..=255u8, 0..1500),
    ) {
        let framed = remote::encode_envelope(request_id, &payload);
        prop_assert_eq!(
            remote::decode_envelope(&framed).unwrap(),
            (request_id, payload.clone())
        );
        let mut cursor = &framed[..];
        prop_assert_eq!(
            remote::read_envelope(&mut cursor).unwrap(),
            (request_id, payload)
        );
        for cut in 0..framed.len() {
            prop_assert!(
                remote::decode_envelope(&framed[..cut]).is_err(),
                "prefix {} must not decode", cut
            );
            let mut cursor = &framed[..cut];
            prop_assert!(
                remote::read_envelope(&mut cursor).is_err(),
                "stream prefix {} must not read", cut
            );
        }
    }

    /// Every single-byte corruption of the magic, version, or length
    /// fields is a typed error from the strict codec. The request-id
    /// bytes (6..14) are payload-like: a flip there decodes cleanly but
    /// under a *different* id — which the session's response router
    /// drops on the floor (no caller is pending under it), so it still
    /// cannot corrupt an exchange. The streaming reader never panics
    /// and never reads a damaged frame back as the clean payload under
    /// the clean id.
    #[test]
    fn envelope_header_corruption_is_always_detected(
        request_id in 0u64..u64::MAX,
        payload in prop::collection::vec(0u8..=255u8, 0..300),
        pos in 0usize..22,
        flip in 1u8..=255u8,
    ) {
        let mut framed = remote::encode_envelope(request_id, &payload);
        framed[pos] ^= flip;
        let id_field = (6..14).contains(&pos);
        match remote::decode_envelope(&framed) {
            Ok((id, body)) => {
                prop_assert!(id_field, "byte {} flip {:#04x} must not decode", pos, flip);
                prop_assert_ne!(id, request_id);
                prop_assert_eq!(body, payload.clone());
            }
            Err(_) => prop_assert!(!id_field, "id flips decode under a new id"),
        }
        let mut cursor = &framed[..];
        match remote::read_envelope(&mut cursor) {
            Err(_) => {}
            Ok((id, recovered)) => prop_assert!(
                id != request_id || recovered != payload,
                "corrupt frame must not stream back clean (byte {}, flip {:#04x})", pos, flip
            ),
        }
    }

    /// Flipping any single byte anywhere in a frame never panics either
    /// codec; payload flips decode to exactly the altered payload.
    #[test]
    fn envelope_corruption_never_panics(
        request_id in 0u64..u64::MAX,
        payload in prop::collection::vec(0u8..=255u8, 1..200),
        pos in 0usize..2048,
        flip in 1u8..=255u8,
    ) {
        let mut framed = remote::encode_envelope(request_id, &payload);
        let pos = pos % framed.len();
        framed[pos] ^= flip;
        let strict = remote::decode_envelope(&framed);
        if pos >= remote::ENVELOPE_HEADER_LEN {
            let mut expected = payload.clone();
            expected[pos - remote::ENVELOPE_HEADER_LEN] ^= flip;
            prop_assert_eq!(strict.unwrap(), (request_id, expected));
        } else if (6..14).contains(&pos) {
            let (id, body) = strict.unwrap();
            prop_assert_ne!(id, request_id);
            prop_assert_eq!(body, payload.clone());
        } else {
            prop_assert!(strict.is_err());
        }
        let mut cursor = &framed[..];
        let _ = remote::read_envelope(&mut cursor);
    }
}

// ---------- pattern blocks ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random pattern sets — 1–130 patterns of 1–4 cycles over 1–5 pins,
    /// every one of the seven pin states — go to 64-pattern blocks, to
    /// playback-unit bytes and back without losing a state. A pin pulses
    /// in a cycle on every pattern or none, as a block requires.
    #[test]
    fn pattern_blocks_round_trip_losslessly(
        count in 1usize..131,
        cycles in 1usize..5,
        pins in 1usize..6,
        pulsed in prop::collection::vec(0u8..4, 20..21),
        states in prop::collection::vec(0u8..6, 130 * 20..130 * 20 + 1),
    ) {
        use steac_pattern::{CyclePattern, PatternBlock, PinState};
        const UNPULSED: [PinState; 6] = [
            PinState::Drive0,
            PinState::Drive1,
            PinState::DriveZ,
            PinState::DontCare,
            PinState::ExpectL,
            PinState::ExpectH,
        ];
        let table: std::sync::Arc<[String]> =
            (0..pins).map(|p| format!("p{p}")).collect::<Vec<_>>().into();
        let set: Vec<CyclePattern> = (0..count)
            .map(|k| CyclePattern {
                pins: table.clone(),
                cycles: (0..cycles)
                    .map(|c| {
                        (0..pins)
                            .map(|p| match pulsed[c * 5 + p] {
                                0 => PinState::Pulse,
                                _ => UNPULSED[usize::from(states[k * 20 + c * 5 + p])],
                            })
                            .collect()
                    })
                    .collect(),
            })
            .collect();
        for chunk in set.chunks(64) {
            let block = PatternBlock::from_patterns(chunk).unwrap();
            let unit = block.encode();
            let decoded = PatternBlock::decode(&unit, pins).unwrap();
            prop_assert_eq!(&decoded, &block);
            prop_assert_eq!(&decoded.to_patterns(&table).unwrap()[..], chunk);
        }
    }
}
