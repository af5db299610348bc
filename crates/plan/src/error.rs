//! Error type for placement planning.

use std::fmt;

/// Errors surfaced by the planner and its machine parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A configuration or input was internally inconsistent.
    InvalidConfig(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::InvalidConfig(msg) => write!(f, "invalid plan config: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Result alias for planning operations.
pub type PlanResult<T> = Result<T, PlanError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        assert!(PlanError::InvalidConfig("x".into()).to_string().contains("invalid"));
    }
}
