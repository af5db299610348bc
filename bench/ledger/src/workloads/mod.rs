//! The four workloads. Each module owns its fixture, its set-up, its
//! oracle and the layer probes of its traced run; `run` is the one entry
//! point.

pub mod allpairs_dense;
pub mod allpairs_dist;
pub mod corpus;
pub mod serve_mixed;
pub mod serve_read;

use crate::harness::RunArgs;
use crate::metrics::Report;

/// Run the workload called `name`; `None` for an unknown name.
pub fn run(name: &str, args: &RunArgs) -> Option<Report> {
    Some(match name {
        allpairs_dense::NAME => allpairs_dense::run(args),
        allpairs_dist::NAME => allpairs_dist::run(args),
        serve_read::NAME => serve_read::run(args),
        serve_mixed::NAME => serve_mixed::run(args),
        _ => return None,
    })
}
