//! Wire codecs for March fault-simulation work units, riding the
//! versioned [`steac_sim::wire`] format family (same primitives, same
//! versioning rule — the worker-protocol envelope pins the version for
//! every byte).
//!
//! A March job carries what one walk needs besides the fault chunk: the
//! memory geometry and the algorithm. Unit payloads are fault chunks
//! (tag byte + fields per fault) of at most [`FAULTS_PER_WALK`] faults;
//! results are one detection lane mask (four little-endian `u64` words,
//! [`steac_sim::shard::encode_lane_mask`], the result a gate-level
//! grading pass returns too) per walk, merged in fault-list order by
//! the dispatcher exactly like the thread-sharded path.

use crate::faultsim::{run_packed_march, FAULTS_PER_WALK};
use crate::march::{Direction, MarchAlgorithm, MarchElement, MarchOp};
use crate::memory::{MemFault, PortKind, SramConfig};
use steac_sim::shard::{self, WireJob};
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

/// Serializes a March job block (geometry + algorithm).
#[must_use]
pub fn encode_march_job(alg: &MarchAlgorithm, config: &SramConfig) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_usize(config.words);
    w.put_usize(config.width);
    w.put_u8(config.ports as u8);
    w.put_str(&alg.name);
    w.put_usize(alg.elements.len());
    for e in &alg.elements {
        w.put_u8(e.dir as u8);
        w.put_usize(e.ops.len());
        for &op in &e.ops {
            w.put_u8(op as u8);
        }
    }
    w.finish()
}

/// Reads a one-byte code naming the entry of `table` at that index.
fn get_code<T: Copy>(
    r: &mut WireReader<'_>,
    table: &[T],
    context: &'static str,
) -> Result<T, WireError> {
    let code = r.get_u8(context)?;
    table
        .get(usize::from(code))
        .copied()
        .ok_or(WireError::Corrupt { context })
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
pub fn decode_march_job(bytes: &[u8]) -> Result<(MarchAlgorithm, SramConfig), WireError> {
    let mut r = WireReader::new(bytes);
    let words = r.get_usize("memory words")?;
    let width = r.get_usize("memory width")?;
    if words == 0 || width == 0 || width > 64 || words.saturating_mul(width) > MAX_WIRE_CELLS {
        return Err(WireError::Corrupt {
            context: "memory geometry",
        });
    }
    let ports = get_code(
        &mut r,
        &[PortKind::SinglePort, PortKind::TwoPort],
        "memory ports",
    )?;
    let config = SramConfig {
        words,
        width,
        ports,
    };
    let name = r.get_str("algorithm name")?;
    let element_count = r.get_count("element count", 9)?;
    let mut elements = Vec::with_capacity(element_count);
    for _ in 0..element_count {
        let dir = get_code(&mut r, &Direction::ALL, "element direction")?;
        let op_count = r.get_count("op count", 1)?;
        let mut ops = Vec::with_capacity(op_count);
        for _ in 0..op_count {
            ops.push(get_code(&mut r, &MarchOp::ALL, "march op")?);
        }
        elements.push(MarchElement { dir, ops });
    }
    r.finish()?;
    Ok((MarchAlgorithm { name, elements }, config))
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

/// An opened March job inside a worker process.
struct MarchWireJob {
    alg: MarchAlgorithm,
    config: SramConfig,
}

impl WireJob for MarchWireJob {
    fn run_unit(&mut self, unit: &[u8]) -> Result<Vec<u8>, String> {
        let chunk = decode_fault_unit(unit).map_err(|e| format!("march unit: {e}"))?;
        if chunk.len() > FAULTS_PER_WALK {
            return Err(format!(
                "march unit has {} faults, a walk holds at most {FAULTS_PER_WALK}",
                chunk.len()
            ));
        }
        for f in &chunk {
            if !self.config.fits(f) {
                return Err(format!("fault {f:?} out of range for {}", self.config));
            }
        }
        let mask = run_packed_march(&self.alg, &self.config, &chunk);
        Ok(shard::encode_lane_mask(&mask))
    }
}

/// Decodes a [`WIRE_KIND`] job block into the executable March job — the
/// `steac-worker` side of
/// [`fault_coverage`](crate::faultsim::fault_coverage)'s process
/// backend.
///
/// # Errors
///
/// A diagnostic on corrupt job bytes.
pub fn open_wire_job(job: &[u8]) -> Result<Box<dyn WireJob>, String> {
    let (alg, config) = decode_march_job(job).map_err(|e| format!("march job: {e}"))?;
    Ok(Box::new(MarchWireJob { alg, config }))
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
        let bytes = encode_march_job(&alg, &config);
        let (alg2, config2) = decode_march_job(&bytes).unwrap();
        assert_eq!(alg2, alg);
        assert_eq!(config2, config);
        for cut in 0..bytes.len() {
            assert!(decode_march_job(&bytes[..cut]).is_err(), "prefix {cut}");
        }
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
            let Err(err) = open_wire_job(&encode_march_job(&alg, &config)) else {
                panic!("{words} x {width} must be rejected");
            };
            assert!(err.contains("memory geometry"), "{err}");
        }
        let dsc = SramConfig::single_port(131_072, 16);
        let mut job = open_wire_job(&encode_march_job(&alg, &dsc)).unwrap();
        let unit = encode_fault_unit(&[MemFault::stuck_at(0, 0, true)]);
        let mut detected = vec![0u8; 32];
        detected[0] = 1;
        assert_eq!(job.run_unit(&unit).unwrap(), detected);
    }

    /// Out-of-range faults are rejected with a diagnostic instead of the
    /// panic the in-process constructor is allowed to raise.
    #[test]
    fn out_of_range_fault_is_a_unit_error_not_a_panic() {
        let config = SramConfig::single_port(8, 2);
        let mut job = MarchWireJob {
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
