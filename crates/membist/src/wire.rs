//! Wire codecs for March fault-simulation work units, riding the
//! versioned [`steac_sim::wire`] format family (same primitives, same
//! versioning rule — the worker-protocol envelope pins the version for
//! every byte).
//!
//! A March job carries what one walk needs besides the fault chunk: the
//! memory geometry, the algorithm and the lane-group width. Unit
//! payloads are fault chunks (tag byte + fields per fault); results are
//! one detection lane mask (`groups` little-endian `u64` words) per
//! walk, merged in fault-list order by the dispatcher exactly like the
//! thread-sharded path.

use crate::faultsim::{fault_fits, faults_per_walk, run_packed_march};
use crate::march::{Direction, MarchAlgorithm, MarchElement, MarchOp};
use crate::memory::{MemFault, PortKind, SramConfig};
use steac_sim::shard::WireJob;
use steac_sim::wire::{WireError, WireReader, WireWriter};

/// Work-unit kind the `steac-worker` binary routes to
/// [`open_wire_job`]: one packed March walk over a fault chunk.
pub const WIRE_KIND: u16 = 3;

fn put_cell(w: &mut WireWriter, cell: (usize, usize)) {
    w.put_usize(cell.0);
    w.put_usize(cell.1);
}

fn get_cell(r: &mut WireReader<'_>, context: &'static str) -> Result<(usize, usize), WireError> {
    Ok((r.get_usize(context)?, r.get_usize(context)?))
}

/// Serializes a March job block (geometry + algorithm + lane-group
/// width).
#[must_use]
pub fn encode_march_job(alg: &MarchAlgorithm, config: &SramConfig, groups: u8) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_usize(config.words);
    w.put_usize(config.width);
    w.put_u8(match config.ports {
        PortKind::SinglePort => 0,
        PortKind::TwoPort => 1,
    });
    w.put_u8(groups);
    w.put_str(&alg.name);
    w.put_usize(alg.elements.len());
    for e in &alg.elements {
        w.put_u8(match e.dir {
            Direction::Up => 0,
            Direction::Down => 1,
            Direction::Any => 2,
        });
        w.put_usize(e.ops.len());
        for op in &e.ops {
            w.put_u8(match op {
                MarchOp::R0 => 0,
                MarchOp::R1 => 1,
                MarchOp::W0 => 2,
                MarchOp::W1 => 3,
            });
        }
    }
    w.finish()
}

/// Most memory cells (`words × width`) a wire job may declare: twice
/// the DSC's largest SRAM (131,072 × 16). A walk allocates one lane
/// plane per cell, so an uncapped geometry from the wire could demand
/// any amount of memory before a single fault runs.
const MAX_WIRE_CELLS: usize = 1 << 22;

/// Deserializes a March job block. Geometries above 2²² (4,194,304)
/// cells are rejected here, on the worker side of the wire; in-thread
/// runs take their geometry from the caller and have no such cap.
///
/// # Errors
///
/// A typed [`WireError`] on truncated or corrupted bytes, or on a
/// geometry over the cell cap.
pub fn decode_march_job(bytes: &[u8]) -> Result<(MarchAlgorithm, SramConfig, u8), WireError> {
    let mut r = WireReader::new(bytes);
    let words = r.get_usize("memory words")?;
    let width = r.get_usize("memory width")?;
    if words == 0 || width == 0 || width > 64 || words.saturating_mul(width) > MAX_WIRE_CELLS {
        return Err(WireError::Corrupt {
            context: "memory geometry",
        });
    }
    let ports = match r.get_u8("memory ports")? {
        0 => PortKind::SinglePort,
        1 => PortKind::TwoPort,
        _ => {
            return Err(WireError::Corrupt {
                context: "memory ports",
            })
        }
    };
    let config = SramConfig {
        words,
        width,
        ports,
    };
    let groups = r.get_u8("lane groups")?;
    let name = r.get_str("algorithm name")?;
    let element_count = r.get_count("element count", 9)?;
    let mut elements = Vec::with_capacity(element_count);
    for _ in 0..element_count {
        let dir = match r.get_u8("element direction")? {
            0 => Direction::Up,
            1 => Direction::Down,
            2 => Direction::Any,
            _ => {
                return Err(WireError::Corrupt {
                    context: "element direction",
                })
            }
        };
        let op_count = r.get_count("op count", 1)?;
        let mut ops = Vec::with_capacity(op_count);
        for _ in 0..op_count {
            ops.push(match r.get_u8("march op")? {
                0 => MarchOp::R0,
                1 => MarchOp::R1,
                2 => MarchOp::W0,
                3 => MarchOp::W1,
                _ => {
                    return Err(WireError::Corrupt {
                        context: "march op",
                    })
                }
            });
        }
        elements.push(MarchElement { dir, ops });
    }
    r.finish()?;
    Ok((MarchAlgorithm { name, elements }, config, groups))
}

/// Serializes one March work unit (a chunk of the fault list).
#[must_use]
pub fn encode_fault_unit(faults: &[MemFault]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_usize(faults.len());
    for &f in faults {
        match f {
            MemFault::StuckAt { addr, bit, value } => {
                w.put_u8(0);
                put_cell(&mut w, (addr, bit));
                w.put_bool(value);
            }
            MemFault::Transition { addr, bit, rising } => {
                w.put_u8(1);
                put_cell(&mut w, (addr, bit));
                w.put_bool(rising);
            }
            MemFault::CouplingInversion {
                aggressor,
                victim,
                rising,
            } => {
                w.put_u8(2);
                put_cell(&mut w, aggressor);
                put_cell(&mut w, victim);
                w.put_bool(rising);
            }
            MemFault::CouplingIdempotent {
                aggressor,
                victim,
                rising,
                forced,
            } => {
                w.put_u8(3);
                put_cell(&mut w, aggressor);
                put_cell(&mut w, victim);
                w.put_bool(rising);
                w.put_bool(forced);
            }
            MemFault::CouplingState {
                aggressor,
                victim,
                state,
                forced,
            } => {
                w.put_u8(4);
                put_cell(&mut w, aggressor);
                put_cell(&mut w, victim);
                w.put_bool(state);
                w.put_bool(forced);
            }
            MemFault::AfNoAccess { addr } => {
                w.put_u8(5);
                w.put_usize(addr);
            }
            MemFault::AfMultiAccess { addr, also } => {
                w.put_u8(6);
                w.put_usize(addr);
                w.put_usize(also);
            }
            MemFault::AfOtherAccess { addr, other } => {
                w.put_u8(7);
                w.put_usize(addr);
                w.put_usize(other);
            }
        }
    }
    w.finish()
}

/// Deserializes a March work unit.
///
/// # Errors
///
/// A typed [`WireError`] on truncated or corrupted bytes.
pub fn decode_fault_unit(bytes: &[u8]) -> Result<Vec<MemFault>, WireError> {
    let mut r = WireReader::new(bytes);
    let count = r.get_count("memory-fault count", 9)?;
    let mut faults = Vec::with_capacity(count);
    for _ in 0..count {
        let fault = match r.get_u8("memory-fault tag")? {
            0 => {
                let (addr, bit) = get_cell(&mut r, "stuck-at cell")?;
                MemFault::StuckAt {
                    addr,
                    bit,
                    value: r.get_bool("stuck-at value")?,
                }
            }
            1 => {
                let (addr, bit) = get_cell(&mut r, "transition cell")?;
                MemFault::Transition {
                    addr,
                    bit,
                    rising: r.get_bool("transition direction")?,
                }
            }
            2 => MemFault::CouplingInversion {
                aggressor: get_cell(&mut r, "coupling aggressor")?,
                victim: get_cell(&mut r, "coupling victim")?,
                rising: r.get_bool("coupling direction")?,
            },
            3 => MemFault::CouplingIdempotent {
                aggressor: get_cell(&mut r, "coupling aggressor")?,
                victim: get_cell(&mut r, "coupling victim")?,
                rising: r.get_bool("coupling direction")?,
                forced: r.get_bool("coupling forced value")?,
            },
            4 => MemFault::CouplingState {
                aggressor: get_cell(&mut r, "coupling aggressor")?,
                victim: get_cell(&mut r, "coupling victim")?,
                state: r.get_bool("coupling state")?,
                forced: r.get_bool("coupling forced value")?,
            },
            5 => MemFault::AfNoAccess {
                addr: r.get_usize("af address")?,
            },
            6 => MemFault::AfMultiAccess {
                addr: r.get_usize("af address")?,
                also: r.get_usize("af second address")?,
            },
            7 => MemFault::AfOtherAccess {
                addr: r.get_usize("af address")?,
                other: r.get_usize("af other address")?,
            },
            _ => {
                return Err(WireError::Corrupt {
                    context: "memory-fault tag",
                })
            }
        };
        faults.push(fault);
    }
    r.finish()?;
    Ok(faults)
}

/// An opened March job inside a worker process, monomorphized to the
/// lane-group width the job header requested.
struct MarchWireJob<const N: usize> {
    alg: MarchAlgorithm,
    config: SramConfig,
}

impl<const N: usize> WireJob for MarchWireJob<N> {
    fn run_unit(&mut self, unit: &[u8]) -> Result<Vec<u8>, String> {
        let per_walk = faults_per_walk(N);
        let chunk = decode_fault_unit(unit).map_err(|e| format!("march unit: {e}"))?;
        if chunk.len() > per_walk {
            return Err(format!(
                "march unit has {} faults, a walk holds at most {per_walk}",
                chunk.len()
            ));
        }
        for f in &chunk {
            if !fault_fits(&self.config, f) {
                return Err(format!("fault {f:?} out of range for {}", self.config));
            }
        }
        let mask = run_packed_march::<N>(&self.alg, &self.config, &chunk);
        let mut out = Vec::with_capacity(N * 8);
        for word in mask {
            out.extend_from_slice(&word.to_le_bytes());
        }
        Ok(out)
    }
}

/// Decodes a [`WIRE_KIND`] job block into the executable March job — the
/// `steac-worker` side of
/// [`fault_coverage`](crate::faultsim::fault_coverage)'s process
/// backend.
///
/// # Errors
///
/// A diagnostic on corrupt job bytes, or an unsupported lane-group
/// width.
pub fn open_wire_job(job: &[u8]) -> Result<Box<dyn WireJob>, String> {
    let (alg, config, groups) = decode_march_job(job).map_err(|e| format!("march job: {e}"))?;
    match groups as usize {
        1 => Ok(Box::new(MarchWireJob::<1> { alg, config })),
        2 => Ok(Box::new(MarchWireJob::<2> { alg, config })),
        4 => Ok(Box::new(MarchWireJob::<4> { alg, config })),
        8 => Ok(Box::new(MarchWireJob::<8> { alg, config })),
        _ => Err(format!("march job lane-group width {groups} unsupported")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultsim::random_fault_list;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn march_job_round_trip() {
        let alg = MarchAlgorithm::march_c_minus();
        let config = SramConfig::two_port(48, 9);
        let bytes = encode_march_job(&alg, &config, 4);
        let (alg2, config2, groups) = decode_march_job(&bytes).unwrap();
        assert_eq!(alg2, alg);
        assert_eq!(config2, config);
        assert_eq!(groups, 4);
        for cut in 0..bytes.len() {
            assert!(decode_march_job(&bytes[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn unsupported_lane_width_is_a_job_error() {
        let bytes = encode_march_job(
            &MarchAlgorithm::mats_plus(),
            &SramConfig::single_port(8, 2),
            3,
        );
        let err = match open_wire_job(&bytes) {
            Err(e) => e,
            Ok(_) => panic!("lane-group width 3 must be rejected"),
        };
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn fault_unit_round_trip_over_every_class() {
        let config = SramConfig::single_port(32, 4);
        let mut rng = StdRng::seed_from_u64(17);
        let faults = random_fault_list(&config, 6, &mut rng);
        let bytes = encode_fault_unit(&faults);
        assert_eq!(decode_fault_unit(&bytes).unwrap(), faults);
        for cut in 0..bytes.len() {
            assert!(decode_fault_unit(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut bad = bytes.clone();
        bad[8] = 99; // first fault tag
        assert!(matches!(
            decode_fault_unit(&bad),
            Err(WireError::Corrupt { .. })
        ));
    }

    /// A geometry past the cell cap — or one whose cell count
    /// overflows — is a typed job error, never an allocation; the DSC's
    /// largest SRAM still opens and runs.
    #[test]
    fn oversized_geometry_is_a_job_error_not_an_allocation() {
        let alg = MarchAlgorithm::mats_plus();
        for (words, width) in [(1usize << 40, 8usize), (usize::MAX / 2, 64)] {
            let config = SramConfig::single_port(words, width);
            let Err(err) = open_wire_job(&encode_march_job(&alg, &config, 1)) else {
                panic!("{words} x {width} must be rejected");
            };
            assert!(err.contains("memory geometry"), "{err}");
        }
        let dsc = SramConfig::single_port(131_072, 16);
        let mut job = open_wire_job(&encode_march_job(&alg, &dsc, 1)).unwrap();
        let unit = encode_fault_unit(&[MemFault::stuck_at(0, 0, true)]);
        assert_eq!(job.run_unit(&unit).unwrap(), 1u64.to_le_bytes());
    }

    /// Out-of-range faults are rejected with a diagnostic instead of the
    /// panic the in-process constructor is allowed to raise.
    #[test]
    fn out_of_range_fault_is_a_unit_error_not_a_panic() {
        let config = SramConfig::single_port(8, 2);
        let mut job = MarchWireJob::<1> {
            alg: MarchAlgorithm::mats_plus(),
            config,
        };
        let unit = encode_fault_unit(&[MemFault::StuckAt {
            addr: 8, // out of range
            bit: 0,
            value: true,
        }]);
        let err = job.run_unit(&unit).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }
}
