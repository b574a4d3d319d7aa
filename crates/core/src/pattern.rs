//! The [`Pattern`] type (Definition 1) and its algebra: matching, levels,
//! parent/child generation, dominance, value counts, and the traversal
//! rules (Rule 1, Rule 2) that turn the pattern graph into a tree/forest.

use std::fmt;

pub use coverage_index::X;

use crate::error::{CoverageError, Result};

/// A pattern over `d` categorical attributes: each element is either a value
/// code or the non-deterministic sentinel [`X`].
///
/// Patterns display as in the paper: `1XX`, `X1X0`, etc. Values `10..` (for
/// cardinalities above ten) render in brackets, e.g. `[12]X0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern {
    codes: Box<[u8]>,
}

impl Pattern {
    /// The all-`X` root pattern of arity `d` (level 0).
    pub fn all_x(d: usize) -> Self {
        Self {
            codes: vec![X; d].into_boxed_slice(),
        }
    }

    /// Builds a pattern from raw codes ([`X`] = non-deterministic).
    pub fn from_codes(codes: impl Into<Vec<u8>>) -> Self {
        Self {
            codes: codes.into().into_boxed_slice(),
        }
    }

    /// Builds a fully deterministic pattern from a value combination.
    pub fn from_combination(combo: &[u8]) -> Self {
        debug_assert!(combo.iter().all(|&v| v != X));
        Self {
            codes: combo.to_vec().into_boxed_slice(),
        }
    }

    /// Parses the paper's compact notation: one element per attribute,
    /// `X`/`x` for non-deterministic, digits for values 0–9, and `[NN]` for
    /// values 10 and above — exactly what [`Display`](fmt::Display) emits,
    /// so every pattern round-trips.
    ///
    /// # Errors
    ///
    /// Returns an error for characters outside `[0-9Xx]` / bracket groups,
    /// and for bracket groups that are empty, unterminated, or ≥ 255 (the
    /// [`X`] sentinel).
    pub fn parse(s: &str) -> Result<Self> {
        let bad = CoverageError::BadPattern;
        let mut codes = Vec::new();
        let mut chars = s.chars();
        while let Some(ch) = chars.next() {
            match ch {
                'X' | 'x' => codes.push(X),
                '0'..='9' => codes.push(ch as u8 - b'0'),
                '[' => {
                    let mut value: u32 = 0;
                    let mut digits = 0usize;
                    loop {
                        match chars.next() {
                            Some(d @ '0'..='9') => {
                                digits += 1;
                                value = value * 10 + (d as u32 - '0' as u32);
                                if value >= X as u32 {
                                    return Err(bad(format!(
                                        "bracketed value must be below {X}, got `[{value}…`"
                                    )));
                                }
                            }
                            Some(']') => break,
                            Some(other) => {
                                return Err(bad(format!(
                                    "unexpected `{other}` inside bracketed value"
                                )))
                            }
                            None => return Err(bad("unterminated `[` in pattern".into())),
                        }
                    }
                    if digits == 0 {
                        return Err(bad("empty `[]` in pattern".into()));
                    }
                    codes.push(value as u8);
                }
                other => {
                    return Err(bad(format!("unexpected pattern character `{other}`")));
                }
            }
        }
        Ok(Self::from_codes(codes))
    }

    /// Number of attributes (`d`).
    pub fn arity(&self) -> usize {
        self.codes.len()
    }

    /// Raw codes ([`X`] = non-deterministic).
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// The element at position `i`, `None` when non-deterministic.
    pub fn get(&self, i: usize) -> Option<u8> {
        match self.codes[i] {
            X => None,
            v => Some(v),
        }
    }

    /// Whether element `i` is deterministic.
    pub fn is_deterministic(&self, i: usize) -> bool {
        self.codes[i] != X
    }

    /// The pattern's level (Definition: number of deterministic elements).
    pub fn level(&self) -> usize {
        self.codes.iter().filter(|&&v| v != X).count()
    }

    /// Whether the tuple `t` matches this pattern (Equation 1).
    pub fn matches(&self, t: &[u8]) -> bool {
        debug_assert_eq!(t.len(), self.codes.len());
        self.codes.iter().zip(t).all(|(&p, &v)| p == X || p == v)
    }

    /// Whether `self` dominates `other`: `other` can be obtained from `self`
    /// by making some non-deterministic elements deterministic
    /// (equal patterns dominate each other trivially).
    pub fn dominates(&self, other: &Pattern) -> bool {
        debug_assert_eq!(self.arity(), other.arity());
        self.codes
            .iter()
            .zip(other.codes.iter())
            .all(|(&g, &s)| g == X || g == s)
    }

    /// Returns a copy with element `i` replaced by `code` (which may be [`X`]).
    pub fn with(&self, i: usize, code: u8) -> Pattern {
        let mut codes = self.codes.clone();
        codes[i] = code;
        Pattern { codes }
    }

    /// All parents (Definition 4): one deterministic element replaced by `X`.
    pub fn parents(&self) -> impl Iterator<Item = Pattern> + '_ {
        (0..self.arity())
            .filter(|&i| self.codes[i] != X)
            .map(move |i| self.with(i, X))
    }

    /// All children: one non-deterministic element replaced by each value of
    /// the corresponding attribute.
    pub fn children<'a>(&'a self, cardinalities: &'a [u8]) -> impl Iterator<Item = Pattern> + 'a {
        (0..self.arity())
            .filter(|&i| self.codes[i] == X)
            .flat_map(move |i| (0..cardinalities[i]).map(move |v| self.with(i, v)))
    }

    /// Index of the right-most deterministic element, if any.
    pub fn rightmost_deterministic(&self) -> Option<usize> {
        self.codes.iter().rposition(|&v| v != X)
    }

    /// Index of the right-most non-deterministic element, if any.
    pub fn rightmost_x(&self) -> Option<usize> {
        self.codes.iter().rposition(|&v| v == X)
    }

    /// **Rule 1** children: replace the non-deterministic elements strictly
    /// to the right of the right-most deterministic element with each
    /// attribute value. Guarantees each node of the pattern graph is
    /// generated exactly once in the top-down traversal (Theorem 3).
    pub fn rule1_children(&self, cardinalities: &[u8]) -> Vec<Pattern> {
        let start = self.rightmost_deterministic().map_or(0, |i| i + 1);
        let mut out = Vec::new();
        for (i, &card) in cardinalities.iter().enumerate().skip(start) {
            if self.codes[i] == X {
                for v in 0..card {
                    out.push(self.with(i, v));
                }
            }
        }
        out
    }

    /// The unique Rule-1 generator of this pattern: the right-most
    /// deterministic element replaced by `X` (None for the root).
    pub fn rule1_generator(&self) -> Option<Pattern> {
        self.rightmost_deterministic().map(|i| self.with(i, X))
    }

    /// **Rule 2** parents: replace each deterministic element *with value 0*
    /// strictly to the right of the right-most non-deterministic element
    /// with `X`. Guarantees each node is generated exactly once in the
    /// bottom-up traversal (Theorem 4).
    pub fn rule2_parents(&self) -> Vec<Pattern> {
        let start = self.rightmost_x().map_or(0, |i| i + 1);
        (start..self.arity())
            .filter(|&i| self.codes[i] == 0)
            .map(|i| self.with(i, X))
            .collect()
    }

    /// The unique Rule-2 generator of this pattern: the right-most
    /// non-deterministic element replaced by value 0 (None for fully
    /// deterministic patterns, which seed the bottom-up traversal).
    pub fn rule2_generator(&self) -> Option<Pattern> {
        self.rightmost_x().map(|i| self.with(i, 0))
    }

    /// Value count (Definition 7): the number of value combinations matching
    /// this pattern, `Π c_j` over its non-deterministic attributes.
    /// Saturates at `u128::MAX`.
    pub fn value_count(&self, cardinalities: &[u8]) -> u128 {
        self.codes
            .iter()
            .zip(cardinalities)
            .filter(|(&p, _)| p == X)
            .fold(1u128, |acc, (_, &c)| acc.saturating_mul(c as u128))
    }

    /// Enumerates all descendants of this pattern at exactly `level`
    /// deterministic elements (used by the Appendix C expansion).
    /// Returns an empty vector when `level < self.level()`.
    pub fn descendants_at_level(&self, cardinalities: &[u8], level: usize) -> Vec<Pattern> {
        let own = self.level();
        if level < own {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut stack = vec![(self.clone(), 0usize)];
        while let Some((p, from)) = stack.pop() {
            let need = level - p.level();
            if need == 0 {
                out.push(p);
                continue;
            }
            // Choose the next X position at or after `from` to make
            // deterministic; iterating positions in order avoids duplicates.
            let remaining_x = p.codes[from..].iter().filter(|&&v| v == X).count();
            if remaining_x < need {
                continue;
            }
            for (i, &card) in cardinalities.iter().enumerate().skip(from) {
                if p.codes[i] == X {
                    for v in 0..card {
                        stack.push((p.with(i, v), i + 1));
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &code in self.codes.iter() {
            match code {
                X => write!(f, "X")?,
                v if v <= 9 => write!(f, "{v}")?,
                v => write!(f, "[{v}]")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        for s in ["XXX", "1X0", "X1X0", "10X1", "012", "[12]X0", "[10][254]X"] {
            assert_eq!(Pattern::parse(s).unwrap().to_string(), s);
        }
        for bad in ["1?0", "[", "[]", "[1x]", "[255]"] {
            let err = Pattern::parse(bad).unwrap_err();
            assert!(
                matches!(err, CoverageError::BadPattern(_)),
                "`{bad}`: {err:?}"
            );
            assert!(
                err.to_string().starts_with("bad pattern: "),
                "`{bad}`: {err}"
            );
        }
        assert_eq!(Pattern::from_codes(vec![12, X, 0]).to_string(), "[12]X0");
        // Bracket groups parse to single elements ([7] ≡ 7).
        assert_eq!(
            Pattern::parse("[7]X").unwrap(),
            Pattern::parse("7X").unwrap()
        );
    }

    #[test]
    fn parse_rejects_malformed_bracket_groups() {
        for bad in ["[", "[]", "[12", "[1x]", "[255]", "[999]", "]0"] {
            assert!(Pattern::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn matching_follows_equation_1() {
        // Paper: P = X1X0, t1 = 1100 and t2 = 0110 match, t3 = 1010 does not.
        let p = Pattern::parse("X1X0").unwrap();
        assert!(p.matches(&[1, 1, 0, 0]));
        assert!(p.matches(&[0, 1, 1, 0]));
        assert!(!p.matches(&[1, 0, 1, 0]));
    }

    #[test]
    fn levels() {
        // Paper: ℓ(1XXX) = 1, ℓ(10X1) = 3.
        assert_eq!(Pattern::parse("1XXX").unwrap().level(), 1);
        assert_eq!(Pattern::parse("10X1").unwrap().level(), 3);
        assert_eq!(Pattern::all_x(5).level(), 0);
    }

    #[test]
    fn dominance_examples() {
        // Paper: 10X1 is dominated by 1XXX.
        let general = Pattern::parse("1XXX").unwrap();
        let specific = Pattern::parse("10X1").unwrap();
        assert!(general.dominates(&specific));
        assert!(!specific.dominates(&general));
        assert!(general.dominates(&general));
    }

    #[test]
    fn parents_and_children() {
        let p = Pattern::parse("10X1").unwrap();
        let parents: Vec<String> = p.parents().map(|q| q.to_string()).collect();
        assert_eq!(parents, vec!["X0X1", "1XX1", "10XX"]);

        let root = Pattern::all_x(2);
        let children: Vec<String> = root.children(&[2, 3]).map(|q| q.to_string()).collect();
        assert_eq!(children, vec!["0X", "1X", "X0", "X1", "X2"]);
    }

    #[test]
    fn rule1_children_match_paper_figure3() {
        // Fig 3: 0XX generates 00X, 01X, 0X0, 0X1; X1X generates X10, X11.
        let cards = [2u8, 2, 2];
        let mut c: Vec<String> = Pattern::parse("0XX")
            .unwrap()
            .rule1_children(&cards)
            .iter()
            .map(|p| p.to_string())
            .collect();
        c.sort();
        assert_eq!(c, vec!["00X", "01X", "0X0", "0X1"]);

        let c: Vec<String> = Pattern::parse("X1X")
            .unwrap()
            .rule1_children(&cards)
            .iter()
            .map(|p| p.to_string())
            .collect();
        assert_eq!(c, vec!["X10", "X11"]);
    }

    #[test]
    fn rule1_generator_is_unique_parent() {
        // Theorem 3: the generator of P replaces its right-most deterministic
        // element with X.
        let p = Pattern::parse("X10").unwrap();
        assert_eq!(p.rule1_generator().unwrap().to_string(), "X1X");
        assert!(Pattern::all_x(3).rule1_generator().is_none());
    }

    #[test]
    fn rule1_generates_each_node_exactly_once() {
        // Exhaustive check on three ternary attributes: BFS via Rule 1 from
        // the root enumerates every pattern exactly once.
        let cards = [3u8, 3, 3];
        let mut seen = std::collections::HashSet::new();
        let mut queue = vec![Pattern::all_x(3)];
        seen.insert(queue[0].clone());
        while let Some(p) = queue.pop() {
            for child in p.rule1_children(&cards) {
                assert!(seen.insert(child.clone()), "duplicate {child}");
                queue.push(child);
            }
        }
        assert_eq!(seen.len(), 4usize.pow(3)); // Π (c_i + 1)
    }

    #[test]
    fn rule2_parents_match_paper_examples() {
        // Paper: X01 generates XX1; 000 generates 00X, 0X0, X00.
        let p = Pattern::parse("X01").unwrap();
        let parents: Vec<String> = p.rule2_parents().iter().map(|q| q.to_string()).collect();
        assert_eq!(parents, vec!["XX1"]);

        let p = Pattern::parse("000").unwrap();
        let mut parents: Vec<String> = p.rule2_parents().iter().map(|q| q.to_string()).collect();
        parents.sort();
        assert_eq!(parents, vec!["00X", "0X0", "X00"]);
    }

    #[test]
    fn rule2_generator_is_unique_child() {
        // Theorem 4: the generator of P replaces its right-most X with 0.
        let p = Pattern::parse("XX1").unwrap();
        assert_eq!(p.rule2_generator().unwrap().to_string(), "X01");
        assert!(Pattern::parse("010").unwrap().rule2_generator().is_none());
    }

    #[test]
    fn rule2_generates_each_node_exactly_once() {
        // Exhaustive check: starting from all full combinations, bottom-up
        // generation via Rule 2 reaches every pattern exactly once.
        let mut seen = std::collections::HashSet::new();
        let mut queue: Vec<Pattern> = Vec::new();
        for a in 0..2u8 {
            for b in 0..3u8 {
                for c in 0..2u8 {
                    let p = Pattern::from_combination(&[a, b, c]);
                    seen.insert(p.clone());
                    queue.push(p);
                }
            }
        }
        while let Some(p) = queue.pop() {
            for parent in p.rule2_parents() {
                assert!(seen.insert(parent.clone()), "duplicate {parent}");
                queue.push(parent);
            }
        }
        assert_eq!(seen.len(), 3 * 4 * 3); // Π (c_i + 1)
    }

    #[test]
    fn value_count_matches_paper() {
        // Paper: P = X1X0 over binary attributes → c_AP = 2 × 2 = 4.
        let p = Pattern::parse("X1X0").unwrap();
        assert_eq!(p.value_count(&[2, 2, 2, 2]), 4);
        assert_eq!(
            Pattern::parse("1010").unwrap().value_count(&[2, 2, 2, 2]),
            1
        );
        assert_eq!(Pattern::all_x(3).value_count(&[10, 4, 7]), 280);
    }

    #[test]
    fn descendants_at_level_match_appendix_c() {
        // Appendix C: descendants of P1 = XX01X at level 3 are 0X01X, 1X01X,
        // X001X, X101X, X201X, XX010, XX011 (A2 and A3 ternary in Example 2).
        let cards = [2u8, 3, 3, 2, 2];
        let p = Pattern::parse("XX01X").unwrap();
        let mut d: Vec<String> = p
            .descendants_at_level(&cards, 3)
            .iter()
            .map(|q| q.to_string())
            .collect();
        d.sort();
        assert_eq!(
            d,
            vec!["0X01X", "1X01X", "X001X", "X101X", "X201X", "XX010", "XX011"]
        );
    }

    #[test]
    fn descendants_at_own_level_is_self() {
        let p = Pattern::parse("1X0").unwrap();
        let d = p.descendants_at_level(&[2, 2, 2], 2);
        assert_eq!(d, vec![p.clone()]);
        assert!(p.descendants_at_level(&[2, 2, 2], 1).is_empty());
    }

    #[test]
    fn descendants_counts_are_exact() {
        // From the root of d=4 binary, level-2 descendants = C(4,2) * 2^2 = 24.
        let root = Pattern::all_x(4);
        let d = root.descendants_at_level(&[2, 2, 2, 2], 2);
        assert_eq!(d.len(), 24);
        let unique: std::collections::HashSet<_> = d.iter().collect();
        assert_eq!(unique.len(), 24);
    }
}
