//! Fault dictionaries and the `diagnose` lookup that ranks them.
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
//! # Wire format
//!
//! A dictionary travels only as the unit *results* of dictionary-mode
//! fault jobs (kinds 1, 4 and 5): per unit, the entry count (`u64`),
//! then per entry the first detecting pattern (`u32`, `u32::MAX` =
//! never detected), the signature's word count (`u64`) and its words
//! (`u64` each). The dispatcher checks every width against the job's
//! patterns × outputs and concatenates the units' entries in fault-list
//! order.
//!
//! # Diagnosis
//!
//! [`diagnose`] is the consumer: given a dictionary and the observed
//! signature of a failing device (the tester's failure log compacted
//! the same way), it ranks every candidate by Hamming distance between
//! signatures — the classic dictionary lookup, distance 0 meaning the
//! candidate explains the observation exactly. It ranks in place, on
//! the calling thread: one XOR and popcount per signature word costs
//! far less than shipping the dictionary to a worker would.

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

// ---------- diagnosis ----------

/// A ranked diagnosis: candidate indexes into the dictionary's entry
/// list, most plausible first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnosis {
    /// `(entry index, Hamming distance)` sorted by distance, ties by
    /// index.
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

/// Ranks every dictionary candidate against an observed failure
/// signature by Hamming distance, ties broken by entry index.
///
/// # Errors
///
/// [`SimError::VectorLength`] if `observed` does not match the
/// dictionary's signature width.
pub fn diagnose(dict: &FaultDictionary, observed: &[u64]) -> Result<Diagnosis, SimError> {
    let words = dict.words_per_signature();
    if observed.len() != words {
        return Err(SimError::VectorLength {
            expected: words,
            got: observed.len(),
        });
    }
    let mut ranked: Vec<(usize, u32)> = dict
        .entries
        .iter()
        .map(|e| distance(&e.signature, observed))
        .enumerate()
        .collect();
    ranked.sort_by_key(|&(i, d)| (d, i));
    Ok(Diagnosis { ranked })
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
    fn entry_unit_codec_round_trips() {
        let d = dict();
        let bytes = encode_dict_entries(&d.entries);
        assert_eq!(decode_dict_entries(&bytes, 3).unwrap(), d.entries);
        assert!(decode_dict_entries(&bytes, 2).is_err());
    }

    /// The exact match ranks first, and of two candidates at one
    /// distance the lower index ranks first.
    #[test]
    fn exact_match_ranks_first() {
        let mut d = dict();
        d.entries.insert(0, entry(Some(1), vec![0b001, 0, 0]));
        let diag = diagnose(&d, &[0b101, 0, 1]).unwrap();
        assert_eq!(diag.ranked, [(2, 0), (0, 2), (3, 2), (1, 3)]);
        assert_eq!(diag.rank_of(2), Some(0));
        assert_eq!(diag.top(2), [(2, 0), (0, 2)]);
    }

    #[test]
    fn wrong_signature_width_is_rejected() {
        let d = dict();
        assert!(matches!(
            diagnose(&d, &[0]),
            Err(SimError::VectorLength { .. })
        ));
    }
}
