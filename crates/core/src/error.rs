//! Error types for the coverage algorithms.

use std::fmt;

/// Errors raised by MUP identification and coverage enhancement.
#[derive(Debug)]
pub enum CoverageError {
    /// A pattern's arity does not match the schema's.
    ArityMismatch {
        /// Arity of the supplied pattern.
        pattern: usize,
        /// Arity expected by the schema/oracle.
        expected: usize,
    },
    /// The requested enumeration would exceed the configured size guard
    /// (e.g. the naïve algorithm over a huge pattern space).
    SearchSpaceTooLarge {
        /// Name of the algorithm that refused to run.
        algorithm: &'static str,
        /// Size of the space it would have to enumerate.
        size: u128,
        /// The configured limit.
        limit: u128,
    },
    /// A threshold could not be resolved (e.g. a non-finite fraction).
    BadThreshold(String),
    /// A pattern string could not be parsed (bad character or bracket
    /// group).
    BadPattern(String),
    /// Coverage enhancement cannot make progress: the remaining patterns are
    /// only matched by combinations the validation oracle rules out.
    Unhittable {
        /// Display strings of the patterns that cannot be hit.
        patterns: Vec<String>,
    },
    /// Propagated dataset error.
    Data(coverage_data::DataError),
}

impl fmt::Display for CoverageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverageError::ArityMismatch { pattern, expected } => {
                write!(
                    f,
                    "pattern arity {pattern} does not match schema arity {expected}"
                )
            }
            CoverageError::SearchSpaceTooLarge {
                algorithm,
                size,
                limit,
            } => write!(
                f,
                "{algorithm}: search space of {size} nodes exceeds the limit of {limit}"
            ),
            CoverageError::BadThreshold(msg) => write!(f, "bad threshold: {msg}"),
            CoverageError::BadPattern(msg) => write!(f, "bad pattern: {msg}"),
            CoverageError::Unhittable { patterns } => write!(
                f,
                "no valid value combination hits the remaining pattern(s): {}",
                patterns.join(", ")
            ),
            CoverageError::Data(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoverageError {}

impl From<coverage_data::DataError> for CoverageError {
    fn from(e: coverage_data::DataError) -> Self {
        CoverageError::Data(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, CoverageError>;
