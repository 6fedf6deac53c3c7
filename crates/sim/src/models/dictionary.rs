//! Fault dictionaries and the `Exec`-dispatched `diagnose` workload.
//!
//! A **fault dictionary** is the localization artifact a dictionary-
//! producing grading run emits: per candidate fault, the first
//! detecting pattern plus a packed **detection signature** — one bit
//! per (pattern, output) position where the faulty machine provably
//! differs from the good machine, bit `p * outputs + o` of a
//! `ceil(patterns * outputs / 64)`-word little-endian vector. The
//! signature of a transition fault indexes launch–capture *pairs*; a
//! bridging or stuck-at signature indexes vectors.
//!
//! # Wire format (`SDCT` block)
//!
//! [`encode_dictionary`] / [`decode_dictionary`] persist a dictionary
//! as: magic `SDCT`, [`wire::WIRE_VERSION`] (`u16`), `patterns` (u32),
//! `outputs` (u32), entry count (u64), then per entry the first
//! detecting pattern (`u32`, `u32::MAX` = never detected) and the
//! signature words (`u64` each, count implied by patterns × outputs).
//! The same per-entry layout (with an explicit count) is the unit
//! *result* payload of dictionary-mode grading jobs, so a remote worker
//! ships signatures back in exactly the bytes the dictionary stores.
//!
//! # Diagnosis
//!
//! [`diagnose`] is the consumer: given a dictionary and the observed
//! signature of a failing device (the tester's failure log compacted
//! the same way), it ranks every candidate by Hamming distance between
//! signatures — the classic dictionary lookup, distance 0 meaning the
//! candidate explains the observation exactly. Scoring is fanned out
//! through [`Exec`] as work-unit chunks of candidates (kind
//! [`WIRE_KIND`]), so a large dictionary diagnoses across the same
//! five backends as grading, with the same byte-identical-results
//! contract.

use crate::exec::{Exec, ExecWork};
use crate::shard::{self, PoolError};
use crate::wire;
use crate::SimError;

/// One dictionary entry: how one candidate fault shows up under the
/// pattern set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictEntry {
    /// First detecting pattern (pair index for transition faults,
    /// vector index otherwise); `None` if the fault is never detected.
    pub first_pattern: Option<u32>,
    /// Packed per-(pattern, output) detection bits; see the module
    /// docs for the bit layout.
    pub signature: Vec<u64>,
}

/// A fault dictionary: per-candidate detection signatures over one
/// pattern set, in fault-list order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultDictionary {
    /// Patterns the signatures index (pairs for transition faults).
    pub patterns: u32,
    /// Observed outputs per pattern.
    pub outputs: u32,
    /// Per-candidate entries, in the grading fault-list order.
    pub entries: Vec<DictEntry>,
}

impl FaultDictionary {
    /// Signature length in 64-bit words.
    #[must_use]
    pub fn words_per_signature(&self) -> usize {
        signature_words(self.patterns as usize, self.outputs as usize)
    }

    /// Entries with at least one detection (the usable candidates).
    #[must_use]
    pub fn detected_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.first_pattern.is_some())
            .count()
    }
}

/// Words needed to hold one bit per (pattern, output) position.
#[must_use]
pub fn signature_words(patterns: usize, outputs: usize) -> usize {
    (patterns * outputs).div_ceil(64)
}

/// Sentinel encoding [`DictEntry::first_pattern`] `== None`.
const NO_PATTERN: u32 = u32::MAX;

/// Serializes a dictionary as an `SDCT` block (see the module docs).
#[must_use]
pub fn encode_dictionary(dict: &FaultDictionary) -> Vec<u8> {
    let words = dict.words_per_signature();
    let mut w = wire::WireWriter::new();
    w.put_bytes(b"SDCT");
    w.put_u16(wire::WIRE_VERSION);
    w.put_u32(dict.patterns);
    w.put_u32(dict.outputs);
    w.put_usize(dict.entries.len());
    for e in &dict.entries {
        debug_assert_eq!(e.signature.len(), words, "signature width mismatch");
        w.put_u32(e.first_pattern.unwrap_or(NO_PATTERN));
        for &word in &e.signature {
            w.put_u64(word);
        }
    }
    w.finish()
}

/// Deserializes an `SDCT` block.
///
/// # Errors
///
/// [`wire::WireError`] on bad magic, wrong version, truncation, or a
/// signature that does not match the header's pattern × output shape.
pub fn decode_dictionary(bytes: &[u8]) -> Result<FaultDictionary, wire::WireError> {
    let mut r = wire::WireReader::new(bytes);
    r.expect_magic(b"SDCT", "dictionary magic")?;
    r.expect_version(wire::WIRE_VERSION, "dictionary version")?;
    let patterns = r.get_u32("dictionary patterns")?;
    let outputs = r.get_u32("dictionary outputs")?;
    let words = signature_words(patterns as usize, outputs as usize);
    let count = r.get_count("dictionary entries", 4 + words * 8)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(read_entry(&mut r, words)?);
    }
    r.finish()?;
    Ok(FaultDictionary {
        patterns,
        outputs,
        entries,
    })
}

fn read_entry(r: &mut wire::WireReader<'_>, words: usize) -> Result<DictEntry, wire::WireError> {
    let first = r.get_u32("dictionary first pattern")?;
    let mut signature = Vec::with_capacity(words);
    for _ in 0..words {
        signature.push(r.get_u64("dictionary signature word")?);
    }
    Ok(DictEntry {
        first_pattern: (first != NO_PATTERN).then_some(first),
        signature,
    })
}

/// Serializes a dictionary-mode unit result: entry count, then each
/// entry as first pattern + explicit word count + signature words.
pub(crate) fn encode_dict_entries(entries: &[DictEntry]) -> Vec<u8> {
    let mut w = wire::WireWriter::new();
    w.put_usize(entries.len());
    for e in entries {
        w.put_u32(e.first_pattern.unwrap_or(NO_PATTERN));
        w.put_usize(e.signature.len());
        for &word in &e.signature {
            w.put_u64(word);
        }
    }
    w.finish()
}

/// Deserializes a dictionary-mode unit result whose signatures are all
/// `words` words wide (diagnostic-string errors because this runs
/// inside [`crate::exec::ExecWork::decode_result`] and a worker's
/// `run_unit`).
pub(crate) fn decode_dict_entries(bytes: &[u8], words: usize) -> Result<Vec<DictEntry>, String> {
    let mut r = wire::WireReader::new(bytes);
    let fail = |e: wire::WireError| format!("dictionary unit result: {e}");
    let count = r.get_count("dictionary entry count", 12).map_err(fail)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let first = r.get_u32("dictionary entry first").map_err(fail)?;
        let len = r.get_count("dictionary entry words", 8).map_err(fail)?;
        if len != words {
            return Err(format!(
                "dictionary entry has {len} signature words, expected {words}"
            ));
        }
        let mut signature = Vec::with_capacity(words);
        for _ in 0..words {
            signature.push(r.get_u64("dictionary entry word").map_err(fail)?);
        }
        entries.push(DictEntry {
            first_pattern: (first != NO_PATTERN).then_some(first),
            signature,
        });
    }
    r.finish().map_err(fail)?;
    Ok(entries)
}

// ---------- the diagnose workload ----------

/// Work-unit kind the worker-side job registry routes to
/// [`open_wire_job`]: signature-distance scoring of a candidate chunk.
pub const WIRE_KIND: u16 = 6;

/// Candidates scored per work unit. Small enough to shard a zoo-sized
/// dictionary across a fleet, large enough that the unit payload
/// dominates the envelope.
const DIAG_CHUNK: usize = 512;

/// A ranked diagnosis: candidate indexes into the dictionary's entry
/// list, most plausible first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnosis {
    /// `(entry index, Hamming distance)` sorted by distance, ties by
    /// index — deterministic on every backend.
    pub ranked: Vec<(usize, u32)>,
}

impl Diagnosis {
    /// The `k` most plausible candidates (fewer if the dictionary is
    /// smaller).
    #[must_use]
    pub fn top(&self, k: usize) -> &[(usize, u32)] {
        &self.ranked[..k.min(self.ranked.len())]
    }

    /// Where a given candidate landed (0 = most plausible).
    #[must_use]
    pub fn rank_of(&self, entry: usize) -> Option<usize> {
        self.ranked.iter().position(|&(i, _)| i == entry)
    }
}

/// Hamming distance between two packed signatures of equal width.
fn distance(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// The [`ExecWork`] description of diagnosis: the observed signature as
/// the job block, candidate-signature chunks as units, per-candidate
/// distances as unit results.
struct DiagnoseWork<'a> {
    words: usize,
    observed: &'a [u64],
}

impl<'a> ExecWork for DiagnoseWork<'a> {
    type Unit = &'a [DictEntry];
    type Output = Vec<u32>;
    type Error = SimError;

    fn kind(&self) -> u16 {
        WIRE_KIND
    }

    fn encode_job(&self) -> Vec<u8> {
        let mut w = wire::WireWriter::new();
        w.put_usize(self.words);
        for &word in self.observed {
            w.put_u64(word);
        }
        w.finish()
    }

    fn encode_unit(&self, unit: &&'a [DictEntry]) -> Vec<u8> {
        encode_dict_entries(unit)
    }

    fn run_unit_local(&self, unit: &&'a [DictEntry]) -> Result<Vec<u32>, SimError> {
        Ok(unit
            .iter()
            .map(|e| distance(&e.signature, self.observed))
            .collect())
    }

    /// Distances are flattened into entry order, so a reply with a
    /// wrong count would rank the wrong candidates: it is rejected.
    fn decode_result(&self, unit: &&'a [DictEntry], bytes: &[u8]) -> Result<Vec<u32>, String> {
        let mut r = wire::WireReader::new(bytes);
        let fail = |e: wire::WireError| format!("diagnose unit result: {e}");
        let count = r.get_count("diagnose distance count", 4).map_err(fail)?;
        if count != unit.len() {
            return Err(format!(
                "diagnose unit result has {count} distances, the unit has {} candidates",
                unit.len()
            ));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(r.get_u32("diagnose distance").map_err(fail)?);
        }
        r.finish().map_err(fail)?;
        Ok(out)
    }

    fn pool_error(&self, error: PoolError) -> SimError {
        error.into()
    }
}

/// Ranks every dictionary candidate against an observed failure
/// signature by Hamming distance (ties broken by entry index), fanned
/// out through `exec` in 512-candidate units — localization
/// as a first-class `Exec` workload, byte-identical on every backend.
///
/// # Errors
///
/// [`SimError::VectorLength`] if `observed` does not match the
/// dictionary's signature width; worker/dispatch failures as
/// [`SimError::Worker`].
pub fn diagnose(
    exec: &Exec,
    dict: &FaultDictionary,
    observed: &[u64],
) -> Result<Diagnosis, SimError> {
    let words = dict.words_per_signature();
    if observed.len() != words {
        return Err(SimError::VectorLength {
            expected: words,
            got: observed.len(),
        });
    }
    let mut distances = Vec::with_capacity(dict.entries.len());
    exec.dispatch(
        &DiagnoseWork { words, observed },
        dict.entries.chunks(DIAG_CHUNK),
        |unit| distances.extend(unit),
    )?;
    let mut ranked: Vec<(usize, u32)> = distances.into_iter().enumerate().collect();
    ranked.sort_by_key(|&(i, d)| (d, i));
    Ok(Diagnosis { ranked })
}

// ---------- worker-side wire job ----------

/// An opened diagnose job inside a worker process.
struct DiagnoseJob {
    observed: Vec<u64>,
}

impl shard::WireJob for DiagnoseJob {
    fn run_unit(&mut self, unit: &[u8]) -> Result<Vec<u8>, String> {
        let entries = decode_dict_entries(unit, self.observed.len())?;
        let mut w = wire::WireWriter::new();
        w.put_usize(entries.len());
        for e in &entries {
            w.put_u32(distance(&e.signature, &self.observed));
        }
        Ok(w.finish())
    }
}

/// Decodes a [`WIRE_KIND`] job block (signature width + observed
/// signature) into the executable job the worker loop drives — the
/// `steac-worker` side of [`diagnose`].
///
/// # Errors
///
/// A diagnostic on corrupt job bytes.
pub fn open_wire_job(job: &[u8]) -> Result<Box<dyn shard::WireJob>, String> {
    let mut r = wire::WireReader::new(job);
    let fail = |e: wire::WireError| format!("diagnose job: {e}");
    let words = r.get_count("diagnose job words", 8).map_err(fail)?;
    let mut observed = Vec::with_capacity(words);
    for _ in 0..words {
        observed.push(r.get_u64("diagnose job observed word").map_err(fail)?);
    }
    r.finish().map_err(fail)?;
    Ok(Box::new(DiagnoseJob { observed }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(first: Option<u32>, signature: Vec<u64>) -> DictEntry {
        DictEntry {
            first_pattern: first,
            signature,
        }
    }

    fn dict() -> FaultDictionary {
        FaultDictionary {
            patterns: 96,
            outputs: 2,
            entries: vec![
                entry(None, vec![0, 0, 0]),
                entry(Some(0), vec![0b101, 0, 1]),
                entry(Some(2), vec![0b100, 0, 0]),
            ],
        }
    }

    #[test]
    fn dictionary_block_round_trips() {
        let d = dict();
        let bytes = encode_dictionary(&d);
        assert_eq!(decode_dictionary(&bytes).unwrap(), d);
        assert!(decode_dictionary(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_dictionary(&bad),
            Err(wire::WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn entry_unit_codec_round_trips() {
        let d = dict();
        let bytes = encode_dict_entries(&d.entries);
        assert_eq!(decode_dict_entries(&bytes, 3).unwrap(), d.entries);
        assert!(decode_dict_entries(&bytes, 2).is_err());
    }

    /// A diagnose reply is checked against the unit it answers: a short,
    /// long or ragged reply is an error, never a shifted ranking.
    #[test]
    fn diagnose_replies_must_match_their_unit() {
        let d = dict();
        let observed = [0b101, 0, 1];
        let work = DiagnoseWork {
            words: 3,
            observed: &observed,
        };
        let unit = &d.entries[..];
        let reply = |distances: &[u32]| {
            let mut w = wire::WireWriter::new();
            w.put_usize(distances.len());
            for &x in distances {
                w.put_u32(x);
            }
            w.finish()
        };
        assert_eq!(
            work.decode_result(&unit, &reply(&[3, 0, 2])).unwrap(),
            work.run_unit_local(&unit).unwrap()
        );
        assert!(work.decode_result(&unit, &reply(&[3, 0])).is_err());
        assert!(work.decode_result(&unit, &reply(&[3, 0, 2, 1])).is_err());
        let mut ragged = reply(&[3, 0, 2]);
        ragged.pop();
        assert!(work.decode_result(&unit, &ragged).is_err());
    }

    #[test]
    fn exact_match_ranks_first() {
        let d = dict();
        let diag = diagnose(&Exec::serial(), &d, &[0b101, 0, 1]).unwrap();
        assert_eq!(diag.ranked[0], (1, 0));
        assert_eq!(diag.rank_of(1), Some(0));
        assert_eq!(diag.top(2).len(), 2);
    }

    #[test]
    fn wrong_signature_width_is_rejected() {
        let d = dict();
        assert!(matches!(
            diagnose(&Exec::serial(), &d, &[0]),
            Err(SimError::VectorLength { .. })
        ));
    }
}
