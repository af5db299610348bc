//! Error types for the sketch-index subsystem.

use std::fmt;

use crate::container::VERSION_SEGMENTED;

/// Result alias for index operations.
pub type IndexResult<T> = Result<T, IndexError>;

/// Errors produced by index construction, persistence and querying.
#[derive(Debug)]
pub enum IndexError {
    /// The index configuration is unusable (zero bands, threshold out of
    /// range, signature/band mismatch, ...).
    InvalidConfig(String),
    /// A query or rerank request is malformed (missing collection, id out
    /// of range, ...).
    InvalidQuery(String),
    /// An I/O error while reading or writing a container file.
    Io(std::io::Error),
    /// The file does not start with the container magic.
    BadMagic,
    /// The container declares a format version this build does not read:
    /// a newer one, or version 1/2 — the single-index section table that
    /// predates the segmented format, whose files must be rebuilt.
    UnsupportedVersion(u32),
    /// The file is shorter than its header or a block declares.
    Truncated {
        /// What was being read when the bytes ran out.
        context: String,
    },
    /// A stored checksum does not match the bytes it covers.
    ChecksumMismatch {
        /// What failed its checksum (e.g. "v3 header").
        section: String,
    },
    /// The bytes parse but violate a structural invariant.
    Corrupt {
        /// Which invariant failed.
        context: String,
    },
    /// A segmented (v3) container holds no intact manifest generation —
    /// nothing to fall back to.
    NoLiveGeneration(String),
    /// A segmented (v3) container holds checksum-valid blocks of a kind
    /// this build does not know — bytes from a newer build, not
    /// corruption. Read-only opens fall back to the newest understood
    /// manifest; read-write opens refuse, because the writer's
    /// truncate-then-append protocol would destroy the foreign blocks.
    ForeignBlocks {
        /// The unknown block kind tag, printable form.
        kind: String,
    },
    /// A writer operation referenced a global sample id that is not a
    /// live committed sample (never assigned, still staged, or already
    /// deleted).
    UnknownSample {
        /// The offending global id.
        id: u32,
        /// Why the id is not usable.
        context: String,
    },
    /// A query was signed under a different scheme (signer kind, length
    /// or seed) than the index's — the signatures are not comparable.
    SignerMismatch {
        /// The index's scheme, as `SignatureScheme::describe` prints it.
        index_scheme: String,
        /// The query's scheme.
        query_scheme: String,
    },
    /// The serving frontend shed this request: a bounded queue was full,
    /// or the service shut down before the work completed. Overload
    /// shedding is admission control, not corruption — the caller may
    /// retry once pressure drains.
    Overloaded {
        /// Request class that was shed ("commit", "query", "compact").
        class: String,
        /// Which limit tripped (queue bound or shutdown).
        context: String,
    },
    /// A pagination cursor references a snapshot generation the service
    /// no longer pins (or a different index entirely). The client must
    /// restart the scan from the first page of a fresh snapshot.
    StaleCursor {
        /// Generation encoded in the cursor.
        cursor_generation: u64,
        /// Oldest generation still answerable.
        snapshot_generation: u64,
    },
    /// A pagination cursor token failed to parse.
    InvalidCursor(String),
    /// A retried operation kept failing until its retry budget ran out.
    /// `last` formats the final error; every attempt's failure was
    /// transient (storage fault or overload), never corruption.
    RetryExhausted {
        /// Attempts performed (first try included).
        attempts: u32,
        /// Display of the error the final attempt produced.
        last: String,
    },
    /// An error from the core (signature) layer.
    Core(gas_core::CoreError),
    /// An error from the sparse (rerank) layer.
    Sparse(gas_sparse::SparseError),
    /// An error from the simulated distributed runtime.
    Sim(gas_dstsim::SimError),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::InvalidConfig(msg) => write!(f, "invalid index configuration: {msg}"),
            IndexError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            IndexError::Io(e) => write!(f, "container I/O error: {e}"),
            IndexError::BadMagic => write!(f, "not a gas-index container (bad magic)"),
            IndexError::UnsupportedVersion(v) if *v < VERSION_SEGMENTED => write!(
                f,
                "container version {v} predates the segmented format (version \
                 {VERSION_SEGMENTED}) and is no longer read; rebuild the index from its samples"
            ),
            IndexError::UnsupportedVersion(v) => {
                write!(f, "unsupported container version {v}")
            }
            IndexError::Truncated { context } => {
                write!(f, "container truncated while reading {context}")
            }
            IndexError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            IndexError::Corrupt { context } => write!(f, "corrupt container: {context}"),
            IndexError::NoLiveGeneration(context) => {
                write!(f, "no readable manifest generation: {context}")
            }
            IndexError::ForeignBlocks { kind } => {
                write!(
                    f,
                    "container holds blocks of unknown kind {kind:?} (a newer format \
                     revision); open it read-only or upgrade this build"
                )
            }
            IndexError::UnknownSample { id, context } => {
                write!(f, "sample id {id} is not a live committed sample: {context}")
            }
            IndexError::SignerMismatch { index_scheme, query_scheme } => write!(
                f,
                "signer mismatch: index signed with {index_scheme}, query with {query_scheme}"
            ),
            IndexError::Overloaded { class, context } => {
                write!(f, "service overloaded, {class} request shed: {context}")
            }
            IndexError::StaleCursor { cursor_generation, snapshot_generation } => write!(
                f,
                "stale page cursor: generation {cursor_generation} is no longer pinned \
                 (oldest answerable generation is {snapshot_generation}); restart the scan"
            ),
            IndexError::InvalidCursor(token) => {
                write!(f, "malformed page cursor token {token:?}")
            }
            IndexError::RetryExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts; last error: {last}")
            }
            IndexError::Core(e) => write!(f, "core error: {e}"),
            IndexError::Sparse(e) => write!(f, "sparse algebra error: {e}"),
            IndexError::Sim(e) => write!(f, "distributed runtime error: {e}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Io(e) => Some(e),
            IndexError::Core(e) => Some(e),
            IndexError::Sparse(e) => Some(e),
            IndexError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IndexError {
    fn from(e: std::io::Error) -> Self {
        IndexError::Io(e)
    }
}

impl From<gas_core::CoreError> for IndexError {
    fn from(e: gas_core::CoreError) -> Self {
        IndexError::Core(e)
    }
}

impl From<gas_sparse::SparseError> for IndexError {
    fn from(e: gas_sparse::SparseError) -> Self {
        IndexError::Sparse(e)
    }
}

impl From<gas_dstsim::SimError> for IndexError {
    fn from(e: gas_dstsim::SimError) -> Self {
        IndexError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(IndexError::InvalidConfig("zero bands".into()).to_string().contains("zero bands"));
        assert!(IndexError::BadMagic.to_string().contains("magic"));
        assert!(IndexError::UnsupportedVersion(9).to_string().contains('9'));
        for old in [1, 2] {
            let told = IndexError::UnsupportedVersion(old).to_string();
            assert!(told.contains("predates the segmented format") && told.contains("rebuild"));
        }
        assert!(IndexError::Truncated { context: "SIGS".into() }.to_string().contains("SIGS"));
        assert!(IndexError::ChecksumMismatch { section: "BUCK".into() }
            .to_string()
            .contains("BUCK"));
        let e = IndexError::SignerMismatch {
            index_scheme: "oph(len=128)".into(),
            query_scheme: "kmins(len=128)".into(),
        };
        assert!(e.to_string().contains("oph") && e.to_string().contains("kmins"));
        let e = IndexError::Overloaded { class: "commit".into(), context: "queue full".into() };
        assert!(e.to_string().contains("commit") && e.to_string().contains("queue full"));
        let e = IndexError::StaleCursor { cursor_generation: 3, snapshot_generation: 7 };
        assert!(e.to_string().contains('3') && e.to_string().contains('7'));
        assert!(IndexError::InvalidCursor("xx".into()).to_string().contains("xx"));
        let e = IndexError::RetryExhausted { attempts: 4, last: "disk sneezed".into() };
        assert!(e.to_string().contains('4') && e.to_string().contains("disk sneezed"));
        let e: IndexError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        let e: IndexError = gas_dstsim::SimError::InvalidWorldSize(0).into();
        assert!(e.to_string().contains("runtime"));
        let e: IndexError =
            gas_core::CoreError::InvalidConfig("sketch size must be positive".into()).into();
        assert!(e.to_string().contains("sketch size"));
        let e: IndexError = gas_sparse::SparseError::ShapeMismatch { context: "x".into() }.into();
        assert!(e.to_string().contains("sparse"));
    }
}
