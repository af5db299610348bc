//! The simulated distributed runtime: spawns ranks as threads and collects
//! per-rank results and cost reports.

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::unbounded;

use crate::comm::{Communicator, Fabric, Mailbox};
use crate::cost::{AggregateCost, CostModel, CostReport, CostTracker};
use crate::error::{SimError, SimResult};
use crate::faults::RankFaults;
use crate::machine::Machine;

/// Per-rank execution context handed to the user closure by
/// [`Runtime::run`].
///
/// It exposes the rank id and the world [`Communicator`], and forwards
/// cost-charging helpers to the rank's tracker.
pub struct RankCtx {
    rank: usize,
    nranks: usize,
    world: Communicator,
    cost: Rc<RefCell<CostTracker>>,
    faults: Arc<RankFaults>,
}

impl RankCtx {
    /// This rank's id in the world communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks in the run.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The world communicator (all ranks).
    pub fn world(&self) -> &Communicator {
        &self.world
    }

    /// Charge `n` local arithmetic operations to this rank.
    pub fn add_flops(&self, n: u64) {
        self.cost.borrow_mut().add_flops(n);
    }

    /// Charge `bytes` of local streaming memory traffic to this rank.
    pub fn add_mem_traffic(&self, bytes: u64) {
        self.cost.borrow_mut().add_mem_traffic(bytes);
    }

    /// Record one explicit superstep boundary in the caller's algorithm.
    pub fn record_superstep(&self) {
        self.cost.borrow_mut().record_superstep();
    }

    /// The injected fault spec for this run (empty by default).
    pub fn faults(&self) -> &RankFaults {
        &self.faults
    }

    /// Is this rank injected as crashed? Crashed ranks should return
    /// early from their closure; any communication they attempt fails
    /// with [`SimError::RankCrashed`].
    pub fn is_crashed(&self) -> bool {
        self.faults.is_crashed(self.rank)
    }

    /// Ranks not injected as crashed, ascending — the membership list a
    /// survivor passes to `Communicator::subgroup` to regroup.
    pub fn alive_ranks(&self) -> Vec<usize> {
        self.faults.alive_ranks(self.nranks)
    }

    /// Unwrap `result`, panicking with this rank's id, the world size,
    /// a caller-supplied operation name and the error.
    ///
    /// Rank closures that `.unwrap()` surface through
    /// [`SimError::RankPanicked`] with only the raw panic payload —
    /// "called `Result::unwrap()` on an `Err` value" tells a CI log
    /// nothing about *which* collective failed on *which* rank. Tests and
    /// distributed drivers should unwrap through this helper instead so
    /// dist-matrix failures are diagnosable from the message alone.
    #[track_caller]
    pub fn expect_ok<T, E: std::fmt::Debug>(&self, what: &str, result: Result<T, E>) -> T {
        match result {
            Ok(v) => v,
            Err(e) => panic!("rank {}/{}: {what} failed: {e:?}", self.rank, self.nranks),
        }
    }
}

/// Output of a completed [`Runtime::run`]: the per-rank return values (in
/// rank order) and their cost reports.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Value returned by each rank's closure, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank cost counters.
    pub reports: Vec<CostReport>,
}

impl<R> RunOutput<R> {
    /// Aggregate communication/computation statistics over all ranks.
    pub fn aggregate(&self) -> AggregateCost {
        AggregateCost::from_reports(&self.reports)
    }

    /// BSP-projected execution time under `model`.
    pub fn projected_time(&self, model: &CostModel) -> f64 {
        model.project(&self.reports)
    }
}

/// Tells every other rank, when dropped, that its rank has left the run
/// — the closure returned or unwound — so a receive from it that no sent
/// message matches fails typed instead of blocking forever.
struct Departure {
    fabric: Arc<Fabric>,
    rank: usize,
}

impl Drop for Departure {
    fn drop(&mut self) {
        self.fabric.depart(self.rank);
    }
}

/// A simulated distributed machine runner.
///
/// `Runtime::new(p)` prepares a world of `p` ranks; [`Runtime::run`]
/// executes a closure on every rank concurrently (each rank on its own OS
/// thread; a one-rank world on the calling thread) and returns their
/// results together with cost reports.
pub struct Runtime {
    nranks: usize,
    machine: Machine,
    faults: Arc<RankFaults>,
}

impl Runtime {
    /// Create a runtime with `nranks` simulated ranks and the default
    /// (Stampede2-like) machine model.
    pub fn new(nranks: usize) -> Self {
        Runtime { nranks, machine: Machine::default(), faults: Arc::new(RankFaults::none()) }
    }

    /// Record the machine description the run models, for a caller to
    /// read back with [`Runtime::machine`]; the ranks do not see it.
    pub fn with_machine(mut self, machine: Machine) -> Self {
        self.machine = machine;
        self
    }

    /// Inject a fault spec: crashed/slowed ranks and receive timeouts.
    /// The spec is fixed for the whole run, so the failure schedule is
    /// deterministic.
    pub fn with_faults(mut self, faults: RankFaults) -> Self {
        self.faults = Arc::new(faults);
        self
    }

    /// Number of ranks this runtime will spawn.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The machine model in use.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Run `f` on every rank. Blocks until all ranks finish. With one rank
    /// `f` runs on the calling thread.
    ///
    /// The closure receives a [`RankCtx`]; its return values are collected
    /// in rank order. If any rank panics the whole run fails with
    /// [`SimError::RankPanicked`].
    pub fn run<F, R>(&self, f: F) -> SimResult<RunOutput<R>>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync,
        R: Send,
    {
        if self.nranks == 0 {
            return Err(SimError::InvalidWorldSize(0));
        }
        let p = self.nranks;
        // Build the fabric: one unbounded channel per rank.
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        let fabric = Arc::new(Fabric { senders });
        let rank_main = |rank: usize, rx| {
            let _departure = Departure { fabric: Arc::clone(&fabric), rank };
            let cost = Rc::new(RefCell::new(CostTracker::new()));
            let mailbox =
                Rc::new(RefCell::new(Mailbox { rx, pending: Vec::new(), departed: Vec::new() }));
            let faults = Arc::clone(&self.faults);
            let world = Communicator::world(
                rank,
                p,
                Arc::clone(&fabric),
                mailbox,
                Rc::clone(&cost),
                Arc::clone(&faults),
            );
            let mut ctx = RankCtx { rank, nranks: p, world, cost: Rc::clone(&cost), faults };
            let start = Instant::now();
            let result = f(&mut ctx);
            let elapsed = start.elapsed().as_secs_f64();
            let report = cost.borrow().report(rank, elapsed);
            (result, report)
        };

        let mut slots: Vec<Option<std::thread::Result<(R, CostReport)>>> = Vec::with_capacity(p);
        if p == 1 {
            // A one-rank world has no peer to overlap with: it runs on the
            // calling thread, a panic caught as a rank thread's would be.
            let rx = receivers[0].take().expect("receiver taken once");
            slots.push(Some(std::panic::catch_unwind(AssertUnwindSafe(|| rank_main(0, rx)))));
        } else {
            slots.resize_with(p, || None);
            std::thread::scope(|scope| {
                let rank_main = &rank_main;
                let handles: Vec<_> = receivers
                    .iter_mut()
                    .enumerate()
                    .map(|(rank, rx)| {
                        let rx = rx.take().expect("receiver taken once");
                        scope.spawn(move || rank_main(rank, rx))
                    })
                    .collect();
                for (rank, handle) in handles.into_iter().enumerate() {
                    slots[rank] = Some(handle.join());
                }
            });
        }

        let mut results = Vec::with_capacity(p);
        let mut reports = Vec::with_capacity(p);
        for (rank, slot) in slots.into_iter().enumerate() {
            match slot.expect("every rank produces a slot") {
                Ok((r, rep)) => {
                    results.push(r);
                    reports.push(rep);
                }
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "unknown panic".to_string());
                    return Err(SimError::RankPanicked { rank, message });
                }
            }
        }
        Ok(RunOutput { results, reports })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_results_in_rank_order() {
        let rt = Runtime::new(5);
        let out = rt.run(|ctx| ctx.rank() * 10).unwrap();
        assert_eq!(out.results, vec![0, 10, 20, 30, 40]);
        assert_eq!(out.reports.len(), 5);
        for (i, r) in out.reports.iter().enumerate() {
            assert_eq!(r.rank, i);
        }
    }

    #[test]
    fn zero_ranks_is_an_error() {
        let rt = Runtime::new(0);
        assert_eq!(rt.run(|_| ()).unwrap_err(), SimError::InvalidWorldSize(0));
    }

    #[test]
    fn point_to_point_ring_exchange() {
        let p = 4;
        let rt = Runtime::new(p);
        let out = rt
            .run(|ctx| {
                let comm = ctx.world();
                let right = (ctx.rank() + 1) % ctx.nranks();
                let left = (ctx.rank() + ctx.nranks() - 1) % ctx.nranks();
                let recvd: u64 = ctx.expect_ok(
                    "ring sendrecv",
                    comm.sendrecv(right, 7, ctx.rank() as u64, left, 7),
                );
                recvd
            })
            .unwrap();
        assert_eq!(out.results, vec![3, 0, 1, 2]);
        // Every rank sent and received exactly one 8-byte message.
        for r in &out.reports {
            assert_eq!(r.msgs_sent, 1);
            assert_eq!(r.msgs_received, 1);
            assert_eq!(r.bytes_sent, 8);
            assert_eq!(r.bytes_received, 8);
        }
    }

    #[test]
    fn panicking_rank_is_reported() {
        let rt = Runtime::new(3);
        let err = rt
            .run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("rank one failed");
                }
                ctx.rank()
            })
            .unwrap_err();
        match err {
            SimError::RankPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("rank one failed"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn flops_and_mem_traffic_are_charged() {
        let rt = Runtime::new(2);
        let out = rt
            .run(|ctx| {
                ctx.add_flops(100);
                ctx.add_mem_traffic(4096);
                ctx.record_superstep();
            })
            .unwrap();
        for r in &out.reports {
            assert_eq!(r.flops, 100);
            assert_eq!(r.mem_traffic, 4096);
            assert_eq!(r.supersteps, 1);
        }
        let agg = out.aggregate();
        assert_eq!(agg.total_flops, 200);
    }

    #[test]
    fn expect_ok_panics_with_rank_and_error_context() {
        // The raw payload of a failed `.unwrap()` says nothing about which
        // rank died; `expect_ok` must name the rank, the world size, the
        // operation and the error so dist-matrix logs are diagnosable.
        let rt = Runtime::new(3);
        let err = rt
            .run(|ctx| {
                let result: Result<(), SimError> = if ctx.rank() == 1 {
                    Err(SimError::TypeMismatch { src: 0, tag: 9 })
                } else {
                    Ok(())
                };
                ctx.expect_ok("probe shard buckets", result)
            })
            .unwrap_err();
        match err {
            SimError::RankPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("rank 1/3"), "missing rank context: {message}");
                assert!(
                    message.contains("probe shard buckets"),
                    "missing operation name: {message}"
                );
                assert!(message.contains("TypeMismatch"), "missing error detail: {message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn type_mismatch_on_recv_is_detected() {
        let rt = Runtime::new(2);
        let err = rt
            .run(|ctx| {
                let comm = ctx.world();
                if ctx.rank() == 0 {
                    ctx.expect_ok("send to rank 1", comm.send(1, 3, 42u64));
                    Ok(())
                } else {
                    // Expect a f32 although a u64 was sent.
                    match comm.recv::<f32>(0, 3) {
                        Err(e) => Err(e),
                        Ok(_) => Ok(()),
                    }
                }
            })
            .unwrap();
        assert_eq!(err.results[1], Err(SimError::TypeMismatch { src: 0, tag: 3 }));
    }

    #[test]
    fn crashed_rank_surfaces_as_typed_errors_not_hangs() {
        // A crashed rank fails its own ops; peers addressing it fail
        // too — immediately and deterministically, no timers involved.
        let rt = Runtime::new(3).with_faults(RankFaults::none().crash(1));
        let out = rt
            .run(|ctx| {
                let comm = ctx.world();
                if ctx.is_crashed() {
                    return comm.send(0, 5, 1u64).map(|_| 0);
                }
                if ctx.rank() == 0 {
                    comm.recv::<u64>(1, 5).map(|v| v as usize)
                } else {
                    Ok(ctx.rank())
                }
            })
            .unwrap();
        assert_eq!(out.results[0], Err(SimError::RankCrashed { rank: 1 }));
        assert_eq!(out.results[1], Err(SimError::RankCrashed { rank: 1 }));
        assert_eq!(out.results[2], Ok(2));
    }

    #[test]
    fn collective_with_a_crashed_rank_errors_instead_of_poisoning_the_run() {
        // The satellite pin: a failed collective must surface as a typed
        // error on every alive rank, never as a panic/hang. An alive
        // rank either hits the crashed peer directly (RankCrashed) or
        // waits on another alive rank that already aborted (Timeout).
        let faults = RankFaults::none().crash(2).with_recv_timeout(50_000);
        let rt = Runtime::new(4).with_faults(faults);
        let out = rt
            .run(|ctx| {
                if ctx.is_crashed() {
                    return Err(SimError::RankCrashed { rank: ctx.rank() });
                }
                ctx.world().allreduce_sum(&[ctx.rank() as u64]).map(|v| v[0])
            })
            .unwrap();
        for (rank, result) in out.results.iter().enumerate() {
            assert!(
                matches!(result, Err(SimError::RankCrashed { .. }) | Err(SimError::Timeout { .. })),
                "rank {rank} should see the crash as a typed error, got {result:?}"
            );
        }
    }

    #[test]
    fn survivors_regroup_with_subgroup_and_finish_the_collective() {
        let faults = RankFaults::none().crash(1);
        let rt = Runtime::new(4).with_faults(faults);
        let out = rt
            .run(|ctx| {
                if ctx.is_crashed() {
                    return Ok(0);
                }
                let alive = ctx.alive_ranks();
                let sub = ctx.world().subgroup(&alive)?;
                sub.allreduce_sum(&[ctx.rank() as u64]).map(|v| v[0])
            })
            .unwrap();
        assert_eq!(out.results, vec![Ok(2 + 3), Ok(0), Ok(5), Ok(5)]);
    }

    #[test]
    fn silent_peer_with_recv_timeout_yields_typed_timeout() {
        let rt = Runtime::new(2).with_faults(RankFaults::none().with_recv_timeout(5_000));
        let out = rt
            .run(|ctx| {
                if ctx.rank() == 0 {
                    // Rank 1 never sends: the receive must time out.
                    ctx.world().recv::<u64>(1, 9).err()
                } else {
                    None
                }
            })
            .unwrap();
        assert_eq!(out.results[0], Some(SimError::Timeout { src: 1, waited_micros: 5_000 }));
    }

    /// `body`'s value, run on a helper thread that is waited for at most
    /// `secs` seconds: a run that hangs fails the test instead.
    fn within<R: Send + 'static>(secs: u64, body: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(body()));
        match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
            Ok(value) => value,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("hung for {secs} s"),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => panic!("the body panicked"),
        }
    }

    #[test]
    fn a_rank_that_leaves_before_a_bcast_fails_every_waiting_peer_typed() {
        // The root of a broadcast returns, or panics, without sending: in a
        // fault-free run nothing bounds the wait, so every other rank must
        // learn of the departure — directly, or from a tree parent that
        // left on its own error — and fail with `Disconnected`.
        for p in [2usize, 4, 5] {
            for root in [0, p - 1] {
                for panics in [false, true] {
                    let ctx = format!("p = {p}, root {root}, panics: {panics}");
                    let (run, seen) = within(30, move || {
                        let seen = std::sync::Mutex::new(vec![None; p]);
                        let run = Runtime::new(p).run(|ctx| {
                            if ctx.rank() == root {
                                assert!(!panics, "rank {root} leaves");
                                return;
                            }
                            let got = ctx.world().bcast(root, None::<u64>);
                            seen.lock().unwrap()[ctx.rank()] = Some(got);
                        });
                        (run.map(|_| ()), seen.into_inner().unwrap())
                    });
                    match run {
                        Err(SimError::RankPanicked { rank, .. }) if panics => {
                            assert_eq!(rank, root, "{ctx}")
                        }
                        other => assert!(other.is_ok() && !panics, "{ctx}: {other:?}"),
                    }
                    for (rank, got) in seen.iter().enumerate().filter(|&(rank, _)| rank != root) {
                        assert!(
                            matches!(got, Some(Err(SimError::Disconnected { .. }))),
                            "{ctx}: rank {rank} saw {got:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn subgroup_rejects_bad_member_lists() {
        let rt = Runtime::new(3);
        rt.run(|ctx| {
            let w = ctx.world();
            assert!(w.subgroup(&[]).is_err());
            assert!(w.subgroup(&[0, 0, 1]).is_err(), "duplicates must be rejected");
            assert!(w.subgroup(&[0, 9]).is_err(), "out-of-world rank must be rejected");
            if ctx.rank() == 2 {
                assert!(w.subgroup(&[0, 1]).is_err(), "caller must be a member");
            }
        })
        .unwrap();
    }
}
