//! March test algorithms: DSL, notation parser and the standard library.
//!
//! A March test is a sequence of *March elements*; each element walks the
//! address space in a direction (⇑ up, ⇓ down, ⇕ either) applying a fixed
//! sequence of read/write operations at every address. Complexity is
//! quoted as the operation count per address, e.g. March C− is a 10N
//! test.

use crate::BistError;
use std::fmt;

/// One read/write operation within a March element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarchOp {
    /// Read, expect background 0.
    R0,
    /// Read, expect background 1.
    R1,
    /// Write background 0.
    W0,
    /// Write background 1.
    W1,
}

impl MarchOp {
    /// Every op, each at the index that is its wire code (`op as u8`).
    pub const ALL: [MarchOp; 4] = [MarchOp::R0, MarchOp::R1, MarchOp::W0, MarchOp::W1];

    /// `true` for reads.
    #[must_use]
    pub fn is_read(self) -> bool {
        matches!(self, MarchOp::R0 | MarchOp::R1)
    }

    /// The data value involved (expected for reads, written for writes).
    #[must_use]
    pub fn value(self) -> bool {
        matches!(self, MarchOp::R1 | MarchOp::W1)
    }
}

impl fmt::Display for MarchOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarchOp::R0 => f.write_str("r0"),
            MarchOp::R1 => f.write_str("r1"),
            MarchOp::W0 => f.write_str("w0"),
            MarchOp::W1 => f.write_str("w1"),
        }
    }
}

/// Address order of a March element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Ascending addresses (⇑).
    Up,
    /// Descending addresses (⇓).
    Down,
    /// Either order is allowed (⇕); simulated ascending.
    Any,
}

impl Direction {
    /// Every direction, each at the index that is its wire code
    /// (`dir as u8`).
    pub const ALL: [Direction; 3] = [Direction::Up, Direction::Down, Direction::Any];
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Up => f.write_str("up"),
            Direction::Down => f.write_str("down"),
            Direction::Any => f.write_str("any"),
        }
    }
}

/// One March element: a direction and an op sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchElement {
    /// Address order.
    pub dir: Direction,
    /// Operations applied at each address.
    pub ops: Vec<MarchOp>,
}

impl fmt::Display for MarchElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ops: Vec<String> = self.ops.iter().map(ToString::to_string).collect();
        write!(f, "{}({})", self.dir, ops.join(","))
    }
}

/// A complete March algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarchAlgorithm {
    /// Algorithm name (e.g. `"March C-"`).
    pub name: String,
    /// Elements in order.
    pub elements: Vec<MarchElement>,
}

impl MarchAlgorithm {
    /// Operation count per address — the `k` of a `kN` test.
    #[must_use]
    pub fn complexity(&self) -> usize {
        self.elements.iter().map(|e| e.ops.len()).sum()
    }

    /// Total BIST cycles for a memory of `words` addresses (one op per
    /// cycle, the usual synchronous-SRAM BIST assumption).
    #[must_use]
    pub fn cycles(&self, words: usize) -> u64 {
        self.complexity() as u64 * words as u64
    }

    /// Parses the ASCII notation used by the BRAINS shell:
    /// `"{any(w0); up(r0,w1); up(r1,w0); down(r0,w1); down(r1,w0); any(r0)}"`.
    ///
    /// # Errors
    ///
    /// Returns [`BistError::MarchSyntax`] with the offending fragment.
    pub fn parse(name: &str, notation: &str) -> Result<Self, BistError> {
        let inner = notation
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or(BistError::MarchSyntax {
                fragment: notation.trim().to_string(),
                expected: "braces around the element list",
            })?;
        let mut elements = Vec::new();
        for elem in inner.split(';') {
            let elem = elem.trim();
            if elem.is_empty() {
                continue;
            }
            let open = elem.find('(').ok_or(BistError::MarchSyntax {
                fragment: elem.to_string(),
                expected: "direction(ops)",
            })?;
            let dir = match &elem[..open] {
                "up" | "^" => Direction::Up,
                "down" | "v" => Direction::Down,
                "any" | "b" => Direction::Any,
                other => {
                    return Err(BistError::MarchSyntax {
                        fragment: other.to_string(),
                        expected: "`up`, `down` or `any`",
                    })
                }
            };
            let close = elem.rfind(')').ok_or(BistError::MarchSyntax {
                fragment: elem.to_string(),
                expected: "closing parenthesis",
            })?;
            let mut ops = Vec::new();
            for op in elem[open + 1..close].split(',') {
                let op = op.trim();
                ops.push(match op {
                    "r0" => MarchOp::R0,
                    "r1" => MarchOp::R1,
                    "w0" => MarchOp::W0,
                    "w1" => MarchOp::W1,
                    other => {
                        return Err(BistError::MarchSyntax {
                            fragment: other.to_string(),
                            expected: "r0, r1, w0 or w1",
                        })
                    }
                });
            }
            if ops.is_empty() {
                return Err(BistError::MarchSyntax {
                    fragment: elem.to_string(),
                    expected: "at least one operation",
                });
            }
            elements.push(MarchElement { dir, ops });
        }
        if elements.is_empty() {
            return Err(BistError::MarchSyntax {
                fragment: notation.to_string(),
                expected: "at least one element",
            });
        }
        Ok(MarchAlgorithm {
            name: name.to_string(),
            elements,
        })
    }

    /// MATS+ — 5N: `{any(w0); up(r0,w1); down(r1,w0)}`. Detects all SAFs
    /// and AFs.
    #[must_use]
    pub fn mats_plus() -> Self {
        Self::parse("MATS+", "{any(w0); up(r0,w1); down(r1,w0)}").expect("static notation")
    }

    /// March X — 6N: detects SAFs, AFs, TFs and unlinked CFins.
    #[must_use]
    pub fn march_x() -> Self {
        Self::parse("March X", "{any(w0); up(r0,w1); down(r1,w0); any(r0)}")
            .expect("static notation")
    }

    /// March Y — 8N: March X plus linked TF detection.
    #[must_use]
    pub fn march_y() -> Self {
        Self::parse(
            "March Y",
            "{any(w0); up(r0,w1,r1); down(r1,w0,r0); any(r0)}",
        )
        .expect("static notation")
    }

    /// March C− — 10N: the workhorse; detects SAFs, AFs, TFs, and all
    /// unlinked CFins, CFids and CFsts. The DSC chip's memories are
    /// tested with this by default.
    #[must_use]
    pub fn march_c_minus() -> Self {
        Self::parse(
            "March C-",
            "{any(w0); up(r0,w1); up(r1,w0); down(r0,w1); down(r1,w0); any(r0)}",
        )
        .expect("static notation")
    }

    /// March A — 15N: adds linked-fault coverage.
    #[must_use]
    pub fn march_a() -> Self {
        Self::parse(
            "March A",
            "{any(w0); up(r0,w1,w0,w1); up(r1,w0,w1); down(r1,w0,w1,w0); down(r0,w1,w0)}",
        )
        .expect("static notation")
    }

    /// March B — 17N: March A plus TF-linked coverage.
    #[must_use]
    pub fn march_b() -> Self {
        Self::parse(
            "March B",
            "{any(w0); up(r0,w1,r1,w0,r0,w1); up(r1,w0,w1); down(r1,w0,w1,w0); down(r0,w1,w0)}",
        )
        .expect("static notation")
    }

    /// March LR — 14N: targets realistic linked faults.
    #[must_use]
    pub fn march_lr() -> Self {
        Self::parse(
            "March LR",
            "{any(w0); down(r0,w1); up(r1,w0,r0,w1); up(r1,w0); up(r0,w1,r1,w0); any(r0)}",
        )
        .expect("static notation")
    }

    /// March SS — 22N: detects all simple static faults.
    #[must_use]
    pub fn march_ss() -> Self {
        Self::parse(
            "March SS",
            "{any(w0); up(r0,r0,w0,r0,w1); up(r1,r1,w1,r1,w0); \
              down(r0,r0,w0,r0,w1); down(r1,r1,w1,r1,w0); any(r0)}",
        )
        .expect("static notation")
    }

    /// The algorithm library indexed by shell name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().replace([' ', '_'], "-").as_str() {
            "mats+" | "mats-plus" => Some(Self::mats_plus()),
            "march-x" => Some(Self::march_x()),
            "march-y" => Some(Self::march_y()),
            "march-c-" | "march-c-minus" | "marchc-" => Some(Self::march_c_minus()),
            "march-a" => Some(Self::march_a()),
            "march-b" => Some(Self::march_b()),
            "march-lr" => Some(Self::march_lr()),
            "march-ss" => Some(Self::march_ss()),
            _ => None,
        }
    }

    /// All library algorithms (for sweeps and reports).
    #[must_use]
    pub fn library() -> Vec<Self> {
        vec![
            Self::mats_plus(),
            Self::march_x(),
            Self::march_y(),
            Self::march_c_minus(),
            Self::march_a(),
            Self::march_b(),
            Self::march_lr(),
            Self::march_ss(),
        ]
    }
}

impl fmt::Display for MarchAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let elems: Vec<String> = self.elements.iter().map(ToString::to_string).collect();
        write!(
            f,
            "{} ({}N): {{{}}}",
            self.name,
            self.complexity(),
            elems.join("; ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complexities_match_the_literature() {
        assert_eq!(MarchAlgorithm::mats_plus().complexity(), 5);
        assert_eq!(MarchAlgorithm::march_x().complexity(), 6);
        assert_eq!(MarchAlgorithm::march_y().complexity(), 8);
        assert_eq!(MarchAlgorithm::march_c_minus().complexity(), 10);
        assert_eq!(MarchAlgorithm::march_a().complexity(), 15);
        assert_eq!(MarchAlgorithm::march_b().complexity(), 17);
        assert_eq!(MarchAlgorithm::march_lr().complexity(), 14);
        assert_eq!(MarchAlgorithm::march_ss().complexity(), 22);
    }

    #[test]
    fn cycles_scale_linearly() {
        let c = MarchAlgorithm::march_c_minus();
        assert_eq!(c.cycles(8192), 81_920);
    }

    #[test]
    fn parse_rejects_bad_notation() {
        assert!(MarchAlgorithm::parse("x", "up(r0)").is_err()); // no braces
        assert!(MarchAlgorithm::parse("x", "{sideways(r0)}").is_err());
        assert!(MarchAlgorithm::parse("x", "{up(r2)}").is_err());
        assert!(MarchAlgorithm::parse("x", "{}").is_err());
        assert!(MarchAlgorithm::parse("x", "{up()}").is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for alg in MarchAlgorithm::library() {
            let shown = alg.to_string();
            let notation = &shown[shown.find('{').unwrap()..];
            let reparsed = MarchAlgorithm::parse(&alg.name, notation).unwrap();
            assert_eq!(reparsed, alg, "{shown}");
        }
    }

    /// Ops and directions keep the wire codes March jobs have always
    /// carried: their declaration order, which `ALL` lists.
    #[test]
    fn wire_codes_are_pinned() {
        for (code, op) in MarchOp::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, code, "{op}");
        }
        assert_eq!(
            MarchOp::ALL.map(|op| op.to_string()),
            ["r0", "r1", "w0", "w1"]
        );
        for (code, dir) in Direction::ALL.into_iter().enumerate() {
            assert_eq!(dir as usize, code, "{dir}");
        }
        assert_eq!(Direction::ALL.map(|d| d.to_string()), ["up", "down", "any"]);
    }

    #[test]
    fn by_name_lookup_is_tolerant() {
        assert!(MarchAlgorithm::by_name("March C-").is_some());
        assert!(MarchAlgorithm::by_name("march_c_minus").is_some());
        assert!(MarchAlgorithm::by_name("MATS+").is_some());
        assert!(MarchAlgorithm::by_name("nonsense").is_none());
    }
}
