//! The BRAINS compiler: memory inventory + policy → complete BIST design
//! with netlists, area, test time and (optionally) measured coverage.
//!
//! "Moreover, BRAINS can be integrated with a memory compiler to deliver
//! BISTed memory cores" — [`Brains::compile`] produces per-memory TPGs,
//! sequencer groups, the shared controller and a [`BistDesign`] summary
//! that STEAC's scheduler consumes as BIST test tasks.

use crate::controller::{bist_time, controller_netlist};
use crate::faultsim::{fault_coverage, random_fault_list, MemCoverageReport};
use crate::march::MarchAlgorithm;
use crate::memory::SramConfig;
use crate::sequencer::sequencer_netlist;
use crate::tpg::tpg_netlist;
use crate::BistError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt;
use steac_netlist::{AreaReport, Design};

/// One embedded memory to be BISTed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySpec {
    /// Instance name.
    pub name: String,
    /// Geometry.
    pub config: SramConfig,
    /// Sequencer group (memories in one group share a sequencer).
    pub group: usize,
}

impl MemorySpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: &str, config: SramConfig, group: usize) -> Self {
        MemorySpec {
            name: name.to_string(),
            config,
            group,
        }
    }
}

/// How sequencers are shared across memories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequencerPolicy {
    /// One sequencer per memory (fastest, biggest).
    PerMemory,
    /// One sequencer per [`MemorySpec::group`] (the Fig. 2 arrangement).
    PerGroup,
    /// A single sequencer for everything (smallest, slowest).
    Single,
}

/// The BRAINS compiler front-end (builder style).
#[derive(Debug, Clone)]
pub struct Brains {
    memories: Vec<MemorySpec>,
    default_alg: MarchAlgorithm,
    overrides: BTreeMap<String, MarchAlgorithm>,
    policy: SequencerPolicy,
    parallel: bool,
}

impl Default for Brains {
    fn default() -> Self {
        Self::new()
    }
}

impl Brains {
    /// New compiler with March C− and per-group sequencers (the DSC
    /// defaults).
    #[must_use]
    pub fn new() -> Self {
        Brains {
            memories: Vec::new(),
            default_alg: MarchAlgorithm::march_c_minus(),
            overrides: BTreeMap::new(),
            policy: SequencerPolicy::PerGroup,
            parallel: true,
        }
    }

    /// Adds a memory.
    pub fn add_memory(&mut self, spec: MemorySpec) -> &mut Self {
        self.memories.push(spec);
        self
    }

    /// Sets the default March algorithm.
    pub fn algorithm(&mut self, alg: MarchAlgorithm) -> &mut Self {
        self.default_alg = alg;
        self
    }

    /// Overrides the algorithm for one memory.
    pub fn algorithm_for(&mut self, memory: &str, alg: MarchAlgorithm) -> &mut Self {
        self.overrides.insert(memory.to_string(), alg);
        self
    }

    /// Sets the sequencer sharing policy.
    pub fn policy(&mut self, policy: SequencerPolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Run sequencers in parallel (`true`) or one at a time.
    pub fn parallel(&mut self, parallel: bool) -> &mut Self {
        self.parallel = parallel;
        self
    }

    /// The memories added so far.
    #[must_use]
    pub fn memories(&self) -> &[MemorySpec] {
        &self.memories
    }

    fn alg_for(&self, mem: &MemorySpec) -> &MarchAlgorithm {
        self.overrides.get(&mem.name).unwrap_or(&self.default_alg)
    }

    /// Refuses a memory with zero words or zero width.
    fn check_geometry(&self) -> Result<(), BistError> {
        match self
            .memories
            .iter()
            .find(|m| m.config.words == 0 || m.config.width == 0)
        {
            Some(m) => Err(BistError::EmptyMemory {
                name: m.name.clone(),
                config: m.config,
            }),
            None => Ok(()),
        }
    }

    /// The memories of each sequencer under the policy, in sequencer
    /// order: one per memory in insertion order, one per
    /// [`MemorySpec::group`] in group order, or all in one.
    fn sequencer_groups(&self) -> Result<Vec<Vec<&MemorySpec>>, BistError> {
        self.check_geometry()?;
        if let Some(name) = self
            .overrides
            .keys()
            .find(|name| !self.memories.iter().any(|m| &m.name == *name))
        {
            return Err(BistError::Unknown {
                what: "memory",
                name: name.clone(),
            });
        }
        let mut groups: BTreeMap<usize, Vec<&MemorySpec>> = BTreeMap::new();
        for (i, m) in self.memories.iter().enumerate() {
            let key = match self.policy {
                SequencerPolicy::PerMemory => i,
                SequencerPolicy::PerGroup => m.group,
                SequencerPolicy::Single => 0,
            };
            groups.entry(key).or_default().push(m);
        }
        Ok(groups.into_values().collect())
    }

    /// One sequencer's test time: memories with identical geometry run
    /// in lock-step (broadcast) and take the longest of their times;
    /// distinct geometries serialise.
    fn group_cycles(&self, members: &[&MemorySpec]) -> u64 {
        let mut geometry_cycles: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for m in members {
            let slot = geometry_cycles
                .entry((m.config.words, m.config.width))
                .or_insert(0);
            *slot = (*slot).max(self.alg_for(m).cycles(m.config.words));
        }
        geometry_cycles.values().sum()
    }

    /// The test time of each sequencer, in sequencer order: the
    /// [`BistDesign::sequencer_cycles`] that [`compile`](Self::compile)
    /// reports, from the same time model, without building a netlist.
    ///
    /// # Errors
    ///
    /// Returns [`BistError::EmptyMemory`] for a memory with zero words or
    /// zero width, and [`BistError::Unknown`] when an override
    /// references a missing memory.
    pub fn sequencer_cycles(&self) -> Result<Vec<u64>, BistError> {
        let groups = self.sequencer_groups()?;
        Ok(groups.iter().map(|g| self.group_cycles(g)).collect())
    }

    /// Compiles the BIST design: a sequencer per group sized for the
    /// group's largest address space and longest algorithm, a TPG per
    /// memory and the shared controller, with their areas and the
    /// test times of [`sequencer_cycles`](Self::sequencer_cycles).
    ///
    /// # Errors
    ///
    /// Returns [`BistError::EmptyMemory`] for a memory with zero words or
    /// zero width, [`BistError::Unknown`] when an override references a
    /// missing memory, or netlist errors.
    pub fn compile(&self) -> Result<BistDesign, BistError> {
        let groups = self.sequencer_groups()?;
        let mut design = Design::new();
        let mut per_memory = Vec::new();
        let mut sequencer_cycles = Vec::new();
        let mut group_sizes = Vec::new();
        let mut sequencer_area = 0.0;
        let mut tpg_area = 0.0;

        for (gi, members) in groups.iter().enumerate() {
            // A sequencer covers the largest address space and the
            // longest algorithm in its group.
            let max_words = members.iter().map(|m| m.config.words).max().unwrap_or(1);
            let addr_bits = (usize::BITS - (max_words.max(2) - 1).leading_zeros()) as usize;
            let max_elems = members
                .iter()
                .map(|m| self.alg_for(m).elements.len())
                .max()
                .unwrap_or(1);
            let max_ops = members
                .iter()
                .flat_map(|m| self.alg_for(m).elements.iter().map(|e| e.ops.len()))
                .max()
                .unwrap_or(1);
            let mut seq = sequencer_netlist(addr_bits, max_elems, max_ops)?;
            seq.name = format!("seq_g{gi}");
            sequencer_area += AreaReport::for_module(&seq).total_ge();
            design.add_module(seq)?;

            for m in members {
                per_memory.push(PerMemory {
                    name: m.name.clone(),
                    config: m.config,
                    algorithm: self.alg_for(m).name.clone(),
                    cycles: self.alg_for(m).cycles(m.config.words),
                });
                let mut tpg = tpg_netlist(&m.config)?;
                tpg.name = format!("tpg_{}", m.name);
                tpg_area += AreaReport::for_module(&tpg).total_ge();
                design.add_module(tpg)?;
            }
            sequencer_cycles.push(self.group_cycles(members));
            group_sizes.push(members.len());
        }

        let controller = controller_netlist(groups.len().max(1))?;
        let controller_area = AreaReport::for_module(&controller).total_ge();
        design.add_module(controller)?;

        let serial = bist_time(&sequencer_cycles, false);
        let parallel = bist_time(&sequencer_cycles, true);
        Ok(BistDesign {
            per_memory,
            sequencer_cycles,
            group_sizes,
            controller_area,
            sequencer_area,
            tpg_area,
            total_cycles_serial: serial,
            total_cycles_parallel: parallel,
            run_parallel: self.parallel,
            netlists: design,
        })
    }

    /// Measures coverage of the configured algorithms on each distinct
    /// geometry by fault simulation of a random fault sample (the BRAINS
    /// "evaluate the memory test efficiency" feature), dispatched on
    /// `exec` like every other grading workload.
    ///
    /// # Errors
    ///
    /// Returns [`BistError::EmptyMemory`] for a memory with zero words or
    /// zero width, and [`BistError::Sim`] only under
    /// [`steac_sim::Fallback::Fail`] on a process backend (see
    /// [`fault_coverage`]).
    pub fn evaluate_coverage(
        &self,
        exec: &steac_sim::Exec,
        per_class: usize,
        seed: u64,
    ) -> Result<Vec<MemCoverageReport>, BistError> {
        self.check_geometry()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen: BTreeMap<(usize, usize, String), ()> = BTreeMap::new();
        let mut out = Vec::new();
        for m in &self.memories {
            let alg = self.alg_for(m);
            let key = (m.config.words, m.config.width, alg.name.clone());
            if seen.insert(key, ()).is_some() {
                continue;
            }
            // Cap the simulated geometry so evaluation stays interactive;
            // March coverage is size-independent for these fault classes.
            let sim_cfg = SramConfig {
                words: m.config.words.min(64),
                width: m.config.width.min(8),
                ports: m.config.ports,
            };
            let faults = random_fault_list(&sim_cfg, per_class, &mut rng);
            out.push(fault_coverage(exec, alg, &sim_cfg, &faults).map_err(BistError::Sim)?);
        }
        Ok(out)
    }
}

/// Per-memory compilation record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerMemory {
    /// Memory name.
    pub name: String,
    /// Geometry.
    pub config: SramConfig,
    /// Algorithm applied.
    pub algorithm: String,
    /// BIST cycles for this memory.
    pub cycles: u64,
}

/// A compiled BIST design.
#[derive(Debug, Clone)]
pub struct BistDesign {
    /// Per-memory records.
    pub per_memory: Vec<PerMemory>,
    /// Cycles per sequencer group.
    pub sequencer_cycles: Vec<u64>,
    /// Number of memories per sequencer group (same order as
    /// [`sequencer_cycles`](Self::sequencer_cycles); `per_memory` is laid
    /// out as contiguous runs of these sizes).
    group_sizes: Vec<usize>,
    /// Controller area (GE).
    pub controller_area: f64,
    /// Total sequencer area (GE).
    pub sequencer_area: f64,
    /// Total TPG area (GE).
    pub tpg_area: f64,
    /// Total cycles when sequencers run one at a time.
    pub total_cycles_serial: u64,
    /// Total cycles when sequencers run concurrently.
    pub total_cycles_parallel: u64,
    /// Whether this design is configured for parallel operation.
    pub run_parallel: bool,
    /// Generated netlists (controller, sequencers, TPGs).
    pub netlists: Design,
}

impl BistDesign {
    /// Total BIST logic area in GE.
    #[must_use]
    pub fn total_area_ge(&self) -> f64 {
        self.controller_area + self.sequencer_area + self.tpg_area
    }

    /// The test time under the configured scheduling mode.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        if self.run_parallel {
            self.total_cycles_parallel
        } else {
            self.total_cycles_serial
        }
    }

    /// Number of sequencers.
    #[must_use]
    pub fn sequencer_count(&self) -> usize {
        self.sequencer_cycles.len()
    }

    /// Memories per sequencer group, in group order.
    #[must_use]
    pub fn group_sizes(&self) -> &[usize] {
        &self.group_sizes
    }
}

impl fmt::Display for BistDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "BIST design: {} memories, {} sequencer(s), {:.0} GE, {} cycles ({})",
            self.per_memory.len(),
            self.sequencer_count(),
            self.total_area_ge(),
            self.total_cycles(),
            if self.run_parallel {
                "parallel"
            } else {
                "serial"
            }
        )?;
        for m in &self.per_memory {
            writeln!(
                f,
                "  {:<12} {:>12} {:>10} {:>10} cycles",
                m.name,
                m.config.to_string(),
                m.algorithm,
                m.cycles
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_inventory() -> Vec<MemorySpec> {
        vec![
            MemorySpec::new("ram_a", SramConfig::single_port(1024, 8), 0),
            MemorySpec::new("ram_b", SramConfig::single_port(1024, 8), 0),
            MemorySpec::new("ram_c", SramConfig::two_port(512, 16), 1),
        ]
    }

    #[test]
    fn compile_produces_netlists_and_times() {
        let mut b = Brains::new();
        for m in small_inventory() {
            b.add_memory(m);
        }
        let d = b.compile().unwrap();
        assert_eq!(d.per_memory.len(), 3);
        assert_eq!(d.sequencer_count(), 2); // groups 0 and 1
                                            // Identical geometries broadcast: group 0 takes 10 * 1024 once.
        assert_eq!(d.sequencer_cycles[0], 10 * 1024);
        assert_eq!(d.sequencer_cycles[1], 10 * 512);
        assert_eq!(d.total_cycles_parallel, 10 * 1024);
        assert_eq!(d.total_cycles_serial, 10 * 1024 + 10 * 512);
        assert!(d.total_area_ge() > 0.0);
        // Netlists: 2 sequencers + 3 TPGs + controller.
        assert_eq!(d.netlists.len(), 6);
    }

    #[test]
    fn single_policy_uses_one_sequencer() {
        let mut b = Brains::new();
        for m in small_inventory() {
            b.add_memory(m);
        }
        b.policy(SequencerPolicy::Single);
        let d = b.compile().unwrap();
        assert_eq!(d.sequencer_count(), 1);
        // Two distinct geometries serialise on the one sequencer.
        assert_eq!(d.sequencer_cycles[0], 10 * 1024 + 10 * 512);
    }

    #[test]
    fn per_memory_policy_maximises_sequencers() {
        let mut b = Brains::new();
        for m in small_inventory() {
            b.add_memory(m);
        }
        b.policy(SequencerPolicy::PerMemory);
        let d = b.compile().unwrap();
        assert_eq!(d.sequencer_count(), 3);
        assert!(d.sequencer_area > 0.0);
    }

    #[test]
    fn algorithm_override_changes_cycles() {
        let mut b = Brains::new();
        b.add_memory(MemorySpec::new("ram_a", SramConfig::single_port(100, 8), 0));
        b.algorithm_for("ram_a", MarchAlgorithm::mats_plus());
        let d = b.compile().unwrap();
        assert_eq!(d.per_memory[0].cycles, 5 * 100);
        assert_eq!(d.per_memory[0].algorithm, "MATS+");
    }

    /// `sequencer_cycles` reads the times `compile` reports, under every
    /// policy, with and without an algorithm override.
    #[test]
    fn sequencer_cycles_equal_the_compiled_ones() {
        for policy in [
            SequencerPolicy::PerMemory,
            SequencerPolicy::PerGroup,
            SequencerPolicy::Single,
        ] {
            let mut b = Brains::new();
            for m in small_inventory() {
                b.add_memory(m);
            }
            b.policy(policy);
            for overridden in [false, true] {
                if overridden {
                    b.algorithm_for("ram_b", MarchAlgorithm::mats_plus());
                }
                let compiled = b.compile().unwrap().sequencer_cycles;
                assert_eq!(
                    b.sequencer_cycles().unwrap(),
                    compiled,
                    "{policy:?}, override {overridden}"
                );
            }
        }
    }

    #[test]
    fn unknown_override_is_reported() {
        let mut b = Brains::new();
        b.algorithm_for("ghost", MarchAlgorithm::mats_plus());
        assert!(matches!(
            b.compile(),
            Err(BistError::Unknown { what: "memory", .. })
        ));
        assert_eq!(b.sequencer_cycles().unwrap_err(), b.compile().unwrap_err());
    }

    #[test]
    fn coverage_evaluation_is_full_for_march_c_minus() {
        let mut b = Brains::new();
        for m in small_inventory() {
            b.add_memory(m);
        }
        let reports = b
            .evaluate_coverage(&steac_sim::Exec::from_env(), 10, 99)
            .unwrap();
        assert_eq!(reports.len(), 2); // two distinct geometries
        for r in &reports {
            assert_eq!(r.coverage_percent(), 100.0, "{r}");
        }
    }

    /// A memory with no words or no bits is a typed error from `compile`,
    /// `sequencer_cycles` and `evaluate_coverage`, not a panic in the
    /// fault draw.
    #[test]
    fn empty_geometry_is_a_typed_error() {
        for config in [SramConfig::single_port(0, 8), SramConfig::single_port(8, 0)] {
            let mut b = Brains::new();
            for m in small_inventory() {
                b.add_memory(m);
            }
            b.add_memory(MemorySpec::new("empty", config, 0));
            let want = BistError::EmptyMemory {
                name: "empty".to_string(),
                config,
            };
            assert_eq!(b.compile().unwrap_err(), want, "{config}");
            assert_eq!(b.sequencer_cycles().unwrap_err(), want, "{config}");
            assert_eq!(
                b.evaluate_coverage(&steac_sim::Exec::serial(), 4, 99)
                    .unwrap_err(),
                want,
                "{config}"
            );
        }
    }

    #[test]
    fn display_lists_memories() {
        let mut b = Brains::new();
        for m in small_inventory() {
            b.add_memory(m);
        }
        let text = b.compile().unwrap().to_string();
        assert!(text.contains("ram_a"), "{text}");
        assert!(text.contains("March C-"), "{text}");
    }
}
