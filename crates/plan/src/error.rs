//! Error type for placement planning.

use std::fmt;

/// Errors surfaced by the planner and its machine-parameter loader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A configuration or input was internally inconsistent.
    InvalidConfig(String),
    /// An I/O failure while loading a report.
    Io(String),
    /// A report file did not have the expected shape.
    Parse(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::InvalidConfig(msg) => write!(f, "invalid plan config: {msg}"),
            PlanError::Io(msg) => write!(f, "plan i/o error: {msg}"),
            PlanError::Parse(msg) => write!(f, "plan report parse error: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<std::io::Error> for PlanError {
    fn from(err: std::io::Error) -> Self {
        PlanError::Io(err.to_string())
    }
}

/// Result alias for planning operations.
pub type PlanResult<T> = Result<T, PlanError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        assert!(PlanError::InvalidConfig("x".into()).to_string().contains("invalid"));
        assert!(PlanError::Io("gone".into()).to_string().contains("gone"));
        assert!(PlanError::Parse("bad".into()).to_string().contains("parse"));
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        assert!(matches!(PlanError::from(io), PlanError::Io(_)));
    }
}
