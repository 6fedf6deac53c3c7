//! The generator: seeded, parameterized synthetic SOCs.
//!
//! Every SOC is derived from `(master seed, index)` through SplitMix64,
//! so a corpus is reproducible from two numbers: equal [`ZooParams`]
//! produce byte-identical task sets, budgets and netlists. All knobs
//! live in [`ZooParams`]; the presets ([`ZooParams::smoke`],
//! [`ZooParams::tiny`]) are the fixed operating points CI runs.
//!
//! The generator sizes each SOC's pin budget and power cap *after*
//! rolling its cores: the budget is the per-session share of the total
//! minimum pin demand plus headroom, the cap the per-session share of
//! total power plus headroom. Headroom factors are themselves sampled,
//! so the corpus spans comfortable chips and tightly-packed ones.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use steac_sched::{ChipConfig, TestTask};
use steac_tam::{shared_pin_count, ControlClass, ControlSignal, PinBudget, SharePolicy};

/// Clock frequencies (MHz) SOCs draw their clock palettes from; cores
/// on the same frequency can share a clock pin under the DSC policy.
const FREQ_CLASSES: [u32; 6] = [50, 100, 133, 200, 266, 400];

/// Knobs for the synthetic corpus. All sampling derives from [`seed`]
/// (see [`ZooParams::soc`]); two equal parameter sets generate
/// byte-identical corpora.
///
/// [`seed`]: ZooParams::seed
#[derive(Debug, Clone, PartialEq)]
pub struct ZooParams {
    /// Master seed; SOC `i` runs on `splitmix(seed, i)`.
    pub seed: u64,
    /// Number of SOCs in the corpus.
    pub socs: usize,
    /// Core-count band, sampled log-uniformly per SOC.
    pub min_cores: usize,
    /// Upper end of the core-count band (inclusive).
    pub max_cores: usize,
    /// Probability a core is a memory group (BIST) instead of logic.
    pub memory_ratio: f64,
    /// Probability a logic core is soft (rebalanceable scan chains).
    pub soft_ratio: f64,
    /// Probability a logic core carries a functional test besides scan.
    pub functional_ratio: f64,
    /// Distinct shared memory-BIST interfaces per SOC (band, inclusive).
    pub mbist_groups: (usize, usize),
    /// Session budget band (inclusive).
    pub max_sessions: (usize, usize),
    /// Power-cap headroom over the per-session power share (band).
    pub power_headroom: (f64, f64),
    /// Pin-budget headroom over the per-session minimum-pin share
    /// (band).
    pub pin_headroom: (f64, f64),
    /// Probability a task's power draw spikes to several times the
    /// typical roll — pathological power profiles that force the
    /// scheduler to serialize around hot tasks. 0 in the standard
    /// presets; the [`ZooParams::adversarial`] preset turns it on.
    pub spiky_power: f64,
}

impl ZooParams {
    /// The CI smoke corpus: 120 SOCs from 4 to 150 cores, fixed seed.
    /// This is the standing stress workload — regressions here are
    /// scheduler regressions, not corpus drift.
    #[must_use]
    pub fn smoke() -> Self {
        ZooParams {
            seed: 0xD5C_2005,
            socs: 120,
            min_cores: 4,
            max_cores: 150,
            memory_ratio: 0.25,
            soft_ratio: 0.5,
            functional_ratio: 0.35,
            mbist_groups: (1, 3),
            max_sessions: (2, 5),
            power_headroom: (1.6, 2.4),
            pin_headroom: (1.5, 2.5),
            spiky_power: 0.0,
        }
    }

    /// Small SOCs only (≤ [`steac_sched::EXHAUSTIVE_LIMIT`] tasks with
    /// high probability): the band the exhaustive-vs-greedy
    /// differential tests run on.
    #[must_use]
    pub fn tiny() -> Self {
        ZooParams {
            seed: 0xD5C_2005 ^ 0x7171,
            socs: 60,
            min_cores: 2,
            max_cores: 6,
            memory_ratio: 0.3,
            soft_ratio: 0.5,
            functional_ratio: 0.3,
            mbist_groups: (1, 2),
            max_sessions: (2, 4),
            power_headroom: (1.4, 2.2),
            pin_headroom: (1.5, 2.5),
            spiky_power: 0.0,
        }
    }

    /// The adversarial corpus: pathological power profiles (a sampled
    /// fraction of tasks spike to 4x the typical draw) combined with
    /// near-zero power and pin headroom, so sessions serialize around
    /// hot tasks and scan grants collapse toward single-wire TAMs.
    /// Budgets are still sized to keep every instance feasible: the
    /// lone-task floors hold regardless of headroom, and with spikes
    /// on, the power sizing adds the first-fit sufficiency term (see
    /// `size_config`) so outliers pressure schedule *quality* and the
    /// invariant checks, not feasibility. Fixed seed: CI runs this
    /// corpus every merge.
    #[must_use]
    pub fn adversarial() -> Self {
        ZooParams {
            seed: 0xD5C_2005 ^ 0xAD5A,
            socs: 40,
            min_cores: 4,
            max_cores: 80,
            memory_ratio: 0.25,
            soft_ratio: 0.5,
            functional_ratio: 0.35,
            mbist_groups: (1, 3),
            max_sessions: (2, 5),
            power_headroom: (1.02, 1.15),
            pin_headroom: (1.0, 1.08),
            spiky_power: 0.15,
        }
    }

    /// Generates SOC `index` of this corpus.
    ///
    /// # Panics
    ///
    /// Panics if the parameter bands are empty (`min_cores >
    /// max_cores` and friends).
    #[must_use]
    pub fn soc(&self, index: usize) -> SyntheticSoc {
        let seed = splitmix(self.seed, index as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let cores = log_uniform(&mut rng, self.min_cores as u64, self.max_cores as u64) as usize;
        let max_sessions = rng.gen_range(self.max_sessions.0..=self.max_sessions.1);
        let mbist_groups = rng.gen_range(self.mbist_groups.0..=self.mbist_groups.1);

        // The SOC's clock palette: cores drawing the same frequency can
        // share a clock pin, which is what makes control sharing bite.
        let palette_len = rng.gen_range(2usize..=4);
        let mut palette = Vec::with_capacity(palette_len);
        while palette.len() < palette_len {
            let f = FREQ_CLASSES[rng.gen_range(0..FREQ_CLASSES.len())];
            if !palette.contains(&f) {
                palette.push(f);
            }
        }

        let mut tasks = Vec::new();
        let mut memories = 0usize;
        for c in 0..cores {
            if rng.gen_bool(self.memory_ratio) {
                memories += 1;
                let cycles = log_uniform(&mut rng, 10_000, 3_000_000);
                let group = rng.gen_range(0..mbist_groups);
                let mut t = TestTask::bist(&format!("m{c}"), cycles).with_power(roll_power(
                    &mut rng,
                    self.spiky_power,
                    0.2,
                    1.0,
                ));
                t.pin_group = Some(format!("mbist{group}"));
                tasks.push(t);
            } else {
                let core = format!("c{c}");
                let freq = palette[rng.gen_range(0..palette.len())];
                let chains: Vec<usize> = (0..rng.gen_range(1usize..=6))
                    .map(|_| log_uniform(&mut rng, 16, 2_000) as usize)
                    .collect();
                let inputs = rng.gen_range(2usize..=220);
                let outputs = rng.gen_range(2usize..=200);
                let patterns = log_uniform(&mut rng, 32, 4_000);
                let soft = rng.gen_bool(self.soft_ratio);
                let controls = vec![
                    ControlSignal::new(&core, "ck", ControlClass::Clock { freq_mhz: freq }),
                    ControlSignal::new(&core, "rst", ControlClass::Reset),
                    ControlSignal::new(&core, "se", ControlClass::ScanEnable),
                    ControlSignal::new(&core, "te", ControlClass::TestEnable),
                ];
                tasks.push(
                    TestTask::scan(&core, patterns, &chains, inputs, outputs, soft)
                        .with_controls(controls.clone())
                        .with_power(roll_power(&mut rng, self.spiky_power, 0.2, 1.0)),
                );
                if rng.gen_bool(self.functional_ratio) {
                    let func_controls = controls
                        .iter()
                        .filter(|s| {
                            matches!(
                                s.class,
                                ControlClass::Clock { .. } | ControlClass::TestEnable
                            )
                        })
                        .cloned()
                        .collect();
                    tasks.push(
                        TestTask::functional(
                            &core,
                            log_uniform(&mut rng, 1_000, 200_000),
                            rng.gen_range(8usize..=120),
                            rng.gen_range(8usize..=100),
                        )
                        .with_controls(func_controls)
                        .with_power(roll_power(
                            &mut rng,
                            self.spiky_power,
                            0.4,
                            1.2,
                        )),
                    );
                }
            }
        }

        let config = size_config(&mut rng, &tasks, max_sessions, self);
        SyntheticSoc {
            name: format!("soc{index:03}"),
            seed,
            cores,
            memories,
            tasks,
            config,
        }
    }

    /// Generates the whole corpus.
    #[must_use]
    pub fn corpus(&self) -> Vec<SyntheticSoc> {
        (0..self.socs).map(|i| self.soc(i)).collect()
    }
}

/// One task's power draw: a uniform roll from the band, spiked to 4x
/// with probability `spiky` (the adversarial preset's pathological
/// profile). The spike roll is skipped entirely at `spiky == 0` so the
/// standard presets' RNG streams — and therefore their corpora — stay
/// byte-identical.
fn roll_power(rng: &mut StdRng, spiky: f64, lo: f64, hi: f64) -> f64 {
    let p = rng.gen_range(lo..hi);
    if spiky > 0.0 && rng.gen_bool(spiky) {
        p * 4.0
    } else {
        p
    }
}

/// Sizes the chip budget around the rolled tasks: the power cap and pin
/// budget get the per-session share of the totals plus sampled
/// headroom, so every corpus SOC is *intended* to be schedulable while
/// still spanning loose and tight operating points.
fn size_config(
    rng: &mut StdRng,
    tasks: &[TestTask],
    max_sessions: usize,
    params: &ZooParams,
) -> ChipConfig {
    let session_share = SharePolicy::dsc(max_sessions);
    let static_share = SharePolicy {
        te_via_controller: false,
        ..SharePolicy::dsc(1)
    };

    let total_power: f64 = tasks.iter().map(|t| t.power).sum();
    let max_power = tasks.iter().map(|t| t.power).fold(0.0f64, f64::max);
    let headroom = rng.gen_range(params.power_headroom.0..params.power_headroom.1);
    let balanced = total_power / max_sessions as f64 * headroom;
    // With spiky power on, the near-balanced-partition assumption
    // behind the tight per-session share no longer holds: a 4x outlier
    // can make every partition exceed `total/k * headroom` no matter
    // how the rest is arranged. Mirror the pin sizing's `+ max_single`
    // term — capacity `total/k + max` is the classic first-fit
    // sufficiency bound, so a partition always exists and the pressure
    // stays on schedule quality, not feasibility.
    let power_limit = if params.spiky_power > 0.0 {
        (balanced + max_power).max(max_power * 1.05)
    } else {
        balanced.max(max_power * 1.05)
    };

    // Upper bound on any session's control pins: sharing the whole
    // inventory (a session's subset can only form fewer groups).
    let control_upper = shared_pin_count(tasks.iter().flat_map(|t| &t.controls), &session_share);

    let refs: Vec<&TestTask> = tasks.iter().collect();
    let total_min = steac_sched::min_pins_needed(&refs);
    // The indivisible floor is a task's *single-session* pin need —
    // min pins plus its fixed shared interfaces (a BIST task has zero
    // min pins but still drags its whole 7-pin interface into whichever
    // session runs it).
    let max_single = tasks
        .iter()
        .map(|t| steac_sched::min_pins_needed(&[t]))
        .max()
        .unwrap_or(0);
    let pin_headroom = rng.gen_range(params.pin_headroom.0..params.pin_headroom.1);
    let data = (total_min as f64 / max_sessions as f64 * pin_headroom).ceil() as usize + max_single;

    let global_pins = 4;
    let reserved = 2;
    ChipConfig {
        budget: PinBudget::with_reserved(reserved + global_pins + control_upper + data, reserved),
        global_pins,
        power_limit,
        max_sessions,
        session_share,
        static_share,
    }
}

/// One synthetic SOC: its rolled task set and the budget sized for it.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSoc {
    /// Corpus-unique name (`soc<index>`).
    pub name: String,
    /// The SOC's derived seed (drives task generation and the grading
    /// netlist).
    pub seed: u64,
    /// Number of cores rolled (logic + memory).
    pub cores: usize,
    /// How many of the cores are memory (BIST) groups.
    pub memories: usize,
    /// The schedulable test tasks (1–2 per logic core, 1 per memory).
    pub tasks: Vec<TestTask>,
    /// Chip budget sized for this SOC.
    pub config: ChipConfig,
}

/// SplitMix64: one 64-bit hop, used to derive per-SOC seeds.
#[must_use]
pub fn splitmix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Log-uniform integer sample in `[lo, hi]`: the corpus needs small
/// cores to be common and thousand-cell monsters to exist.
fn log_uniform(rng: &mut StdRng, lo: u64, hi: u64) -> u64 {
    if lo >= hi {
        return lo;
    }
    let (l, h) = ((lo as f64).ln(), ((hi + 1) as f64).ln());
    let x = rng.gen_range(l..h).exp();
    (x as u64).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = ZooParams::smoke();
        assert_eq!(p.soc(17), p.soc(17));
        assert_eq!(p.soc(0).name, "soc000");
    }

    #[test]
    fn different_indices_differ() {
        let p = ZooParams::smoke();
        assert_ne!(p.soc(1).tasks, p.soc(2).tasks);
    }

    #[test]
    fn core_counts_stay_in_band() {
        let p = ZooParams::smoke();
        for i in 0..40 {
            let soc = p.soc(i);
            assert!(soc.cores >= p.min_cores && soc.cores <= p.max_cores);
            assert!(!soc.tasks.is_empty());
        }
    }

    #[test]
    fn corpus_spans_tens_to_hundreds_of_cores() {
        let corpus = ZooParams::smoke().corpus();
        let max = corpus.iter().map(|s| s.cores).max().unwrap();
        let min = corpus.iter().map(|s| s.cores).min().unwrap();
        assert!(max >= 100, "largest SOC has {max} cores");
        assert!(min < 20, "smallest SOC has {min} cores");
    }

    #[test]
    fn adversarial_preset_is_deterministic_and_actually_spikes() {
        let p = ZooParams::adversarial();
        assert_eq!(p.soc(5), p.soc(5));
        // The pathological profile must really appear: some rolled task
        // exceeds the nominal band's ceiling.
        let spiked = (0..10).flat_map(|i| p.soc(i).tasks).any(|t| t.power > 1.25);
        assert!(spiked, "no spiky power profile in 10 adversarial SOCs");
        // Standard presets stay spike-free and byte-identical to their
        // historical corpora (spiky_power must not perturb their RNG).
        assert!(ZooParams::smoke()
            .soc(3)
            .tasks
            .iter()
            .all(|t| t.power <= 1.2));
    }

    #[test]
    fn every_task_fits_its_budget_alone() {
        // The sizing contract: any single task must be schedulable.
        let p = ZooParams::smoke();
        for i in 0..20 {
            let soc = p.soc(i);
            for t in &soc.tasks {
                assert!(
                    t.power <= soc.config.power_limit + 1e-9,
                    "{}: task {} power {} over cap {}",
                    soc.name,
                    t.name,
                    t.power,
                    soc.config.power_limit
                );
            }
        }
    }

    #[test]
    fn fixed_interfaces_count_toward_the_lone_task_floor() {
        // Regression: tiny-corpus SOC 9 rolled two BIST tasks whose
        // `min_pins()` is 0 but whose shared 7-pin mbist interfaces are
        // indivisible, and the original sizing (floor = max min_pins)
        // granted only ceil(total/2 · headroom) = 6 data pins — neither
        // task could run even in a session of its own. The floor must
        // be the single-task pin need *including* fixed interfaces.
        let soc = ZooParams::tiny().soc(9);
        assert!(soc.tasks.iter().all(|t| t.min_pins() == 0));
        for t in &soc.tasks {
            let need = steac_sched::min_pins_needed(&[t]);
            let control = shared_pin_count(&t.controls, &soc.config.session_share);
            let data = soc
                .config
                .budget
                .data_pins(soc.config.global_pins + control);
            assert!(
                data >= need,
                "{}: task {} needs {need} data pins alone, budget grants {data}",
                soc.name,
                t.name
            );
        }
        steac_sched::schedule_sessions(&soc.tasks, &soc.config).expect("soc009 is feasible");
    }
}
