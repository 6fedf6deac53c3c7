//! Four-valued logic algebra (IEEE 1164-style subset: 0, 1, X, Z).

use std::fmt;

/// A four-valued logic level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Logic {
    /// Strong low.
    Zero,
    /// Strong high.
    One,
    /// Unknown.
    #[default]
    X,
    /// High impedance (undriven).
    Z,
}

impl Logic {
    /// Logical NOT; `X`/`Z` map to `X`.
    // Named after the gate, like `and`/`or`/`xor`; `ops::Not` would imply
    // an involution, which the X/Z folding is not.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Logical AND with X-pessimism (`0 AND anything = 0`).
    #[must_use]
    pub fn and(self, other: Logic) -> Logic {
        match (self, other) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Logical OR with X-pessimism (`1 OR anything = 1`).
    #[must_use]
    pub fn or(self, other: Logic) -> Logic {
        match (self, other) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Logical XOR; any `X`/`Z` input yields `X`.
    #[must_use]
    pub fn xor(self, other: Logic) -> Logic {
        match (self, other) {
            (Logic::Zero, Logic::Zero) | (Logic::One, Logic::One) => Logic::Zero,
            (Logic::Zero, Logic::One) | (Logic::One, Logic::Zero) => Logic::One,
            _ => Logic::X,
        }
    }

    /// 2-to-1 multiplexer: returns `a` when `sel = 0`, `b` when `sel = 1`.
    /// With an unknown select, returns the common value of `a` and `b` if
    /// they agree, `X` otherwise (standard X-optimistic mux).
    #[must_use]
    pub fn mux(a: Logic, b: Logic, sel: Logic) -> Logic {
        match sel {
            Logic::Zero => a,
            Logic::One => b,
            _ => {
                if a == b && a != Logic::Z {
                    a
                } else {
                    Logic::X
                }
            }
        }
    }

    /// `true` for `0` and `1`.
    #[must_use]
    pub fn is_known(self) -> bool {
        matches!(self, Logic::Zero | Logic::One)
    }

    /// Pattern-character representation: `0`, `1`, `X`, `Z`.
    #[must_use]
    pub fn to_char(self) -> char {
        match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'X',
            Logic::Z => 'Z',
        }
    }

    /// Parses a pattern character (case-insensitive; `N` — "don't care" in
    /// some ATE formats — maps to `X`).
    #[must_use]
    pub fn from_char(c: char) -> Option<Logic> {
        match c.to_ascii_uppercase() {
            '0' | 'L' => Some(Logic::Zero),
            '1' | 'H' => Some(Logic::One),
            'X' | 'N' => Some(Logic::X),
            'Z' => Some(Logic::Z),
            _ => None,
        }
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Self {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];

    #[test]
    fn not_truth_table() {
        assert_eq!(Logic::Zero.not(), Logic::One);
        assert_eq!(Logic::One.not(), Logic::Zero);
        assert_eq!(Logic::X.not(), Logic::X);
        assert_eq!(Logic::Z.not(), Logic::X);
    }

    #[test]
    fn and_controlling_value() {
        for v in ALL {
            assert_eq!(Logic::Zero.and(v), Logic::Zero);
            assert_eq!(v.and(Logic::Zero), Logic::Zero);
        }
        assert_eq!(Logic::One.and(Logic::X), Logic::X);
    }

    #[test]
    fn or_controlling_value() {
        for v in ALL {
            assert_eq!(Logic::One.or(v), Logic::One);
            assert_eq!(v.or(Logic::One), Logic::One);
        }
        assert_eq!(Logic::Zero.or(Logic::Z), Logic::X);
    }

    #[test]
    fn xor_any_unknown_is_x() {
        assert_eq!(Logic::One.xor(Logic::X), Logic::X);
        assert_eq!(Logic::One.xor(Logic::Zero), Logic::One);
        assert_eq!(Logic::One.xor(Logic::One), Logic::Zero);
    }

    #[test]
    fn mux_select_known() {
        assert_eq!(
            Logic::mux(Logic::Zero, Logic::One, Logic::Zero),
            Logic::Zero
        );
        assert_eq!(Logic::mux(Logic::Zero, Logic::One, Logic::One), Logic::One);
    }

    #[test]
    fn mux_select_unknown_optimism() {
        assert_eq!(Logic::mux(Logic::One, Logic::One, Logic::X), Logic::One);
        assert_eq!(Logic::mux(Logic::Zero, Logic::One, Logic::X), Logic::X);
    }

    #[test]
    fn char_round_trip() {
        for v in [Logic::Zero, Logic::One, Logic::X, Logic::Z] {
            assert_eq!(Logic::from_char(v.to_char()), Some(v));
        }
        assert_eq!(Logic::from_char('n'), Some(Logic::X));
        assert_eq!(Logic::from_char('?'), None);
    }

    #[test]
    fn and_or_are_commutative() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b), b.and(a));
                assert_eq!(a.or(b), b.or(a));
                assert_eq!(a.xor(b), b.xor(a));
            }
        }
    }
}
