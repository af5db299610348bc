//! Point-to-point messaging between simulated ranks.
//!
//! Ranks run as threads but are only allowed to exchange data through a
//! [`Communicator`], mirroring the discipline of a distributed-memory
//! (MPI) program. Every message is charged to the sending and receiving
//! rank's [`CostTracker`] so that the BSP cost
//! model sees the same traffic a real MPI run would produce.
//!
//! Messages carry owned Rust values (no serialization is performed — the
//! simulator runs in one process), but the number of bytes a message
//! *would* occupy on the wire is computed through the [`Msg`] trait.
//!
//! A value several ranks only read can travel as a shared immutable
//! payload, an `Arc<T>`: it is charged the wire bytes of the `T` inside,
//! while delivering it moves a pointer. A broadcast of an `Arc` therefore
//! clones one pointer per child, not the value — and every receiver
//! charges the same bytes as for the value itself. A sender that wants
//! its buffer back keeps its own clone and reuses the buffer once
//! `Arc::get_mut` says every receiver has dropped theirs;
//! [`Communicator::allreduce_in_place`] is built that way.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::cost::{CostModel, CostTracker};
use crate::error::{SimError, SimResult};
use crate::faults::RankFaults;

/// RAII guard around one collective call: a `gas_obs` span plus, while
/// the span records, a snapshot of the rank's cost counters at entry.
/// When the span closes, the counter deltas are converted through
/// [`CostModel::default`] into the BSP-predicted time of the collective
/// and attached as a `predicted_us` attribute — so a trace carries the
/// model's prediction right next to the measured wall-clock duration of
/// the same call.
pub(crate) struct CollectiveSpan {
    span: gas_obs::Span,
    cost: Rc<RefCell<CostTracker>>,
    start: Option<CostTracker>,
}

impl Drop for CollectiveSpan {
    fn drop(&mut self) {
        let Some(start) = &self.start else {
            return;
        };
        let (supersteps, bytes, flops) = {
            let c = self.cost.borrow();
            (
                c.supersteps() - start.supersteps(),
                c.bytes_received() - start.bytes_received(),
                c.flops() - start.flops(),
            )
        };
        let model = CostModel::default();
        let predicted_seconds = supersteps as f64 * model.alpha
            + bytes as f64 * model.beta
            + flops as f64 * model.gamma;
        self.span.annotate("predicted_us", predicted_seconds * 1e6);
        self.span.annotate("supersteps", supersteps as f64);
        self.span.annotate("bytes", bytes as f64);
    }
}

/// Trait for values that can be sent between ranks.
///
/// `nbytes` reports the wire size of the value; it is used purely for cost
/// accounting (α–β–γ model), the value itself is moved by ownership.
pub trait Msg: Send + 'static {
    /// Number of bytes this value would occupy on the network.
    fn nbytes(&self) -> usize;
}

macro_rules! impl_msg_primitive {
    ($($t:ty),*) => {
        $(impl Msg for $t {
            fn nbytes(&self) -> usize { std::mem::size_of::<$t>() }
        })*
    };
}

impl_msg_primitive!(
    u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char
);

impl Msg for () {
    fn nbytes(&self) -> usize {
        0
    }
}

impl Msg for String {
    fn nbytes(&self) -> usize {
        self.len()
    }
}

impl<T: Msg> Msg for Vec<T> {
    fn nbytes(&self) -> usize {
        self.iter().map(Msg::nbytes).sum()
    }
}

impl<T: Msg> Msg for Option<T> {
    fn nbytes(&self) -> usize {
        1 + self.as_ref().map(Msg::nbytes).unwrap_or(0)
    }
}

impl<T: Msg> Msg for Box<T> {
    fn nbytes(&self) -> usize {
        (**self).nbytes()
    }
}

impl<T: Msg + Sync> Msg for Arc<T> {
    fn nbytes(&self) -> usize {
        (**self).nbytes()
    }
}

impl<A: Msg, B: Msg> Msg for (A, B) {
    fn nbytes(&self) -> usize {
        self.0.nbytes() + self.1.nbytes()
    }
}

impl<A: Msg, B: Msg, C: Msg> Msg for (A, B, C) {
    fn nbytes(&self) -> usize {
        self.0.nbytes() + self.1.nbytes() + self.2.nbytes()
    }
}

impl<A: Msg, B: Msg, C: Msg, D: Msg> Msg for (A, B, C, D) {
    fn nbytes(&self) -> usize {
        self.0.nbytes() + self.1.nbytes() + self.2.nbytes() + self.3.nbytes()
    }
}

/// A message in flight between two ranks.
pub(crate) struct Envelope {
    /// World rank of the sender.
    pub src_world: usize,
    /// Communicator the message was sent on.
    pub comm_id: u64,
    /// User or collective tag.
    pub tag: u64,
    /// Wire size in bytes (for cost accounting on the receiver side).
    pub bytes: usize,
    /// The value itself.
    pub payload: Box<dyn Any + Send>,
}

/// The shared "network": one inbound channel per world rank.
pub(crate) struct Fabric {
    pub senders: Vec<Sender<Envelope>>,
}

impl Fabric {
    /// Tell every other rank that world rank `rank` has left the run: its
    /// closure returned or unwound, so it sends nothing more. Each
    /// sender's messages arrive in order, so a rank that reads the notice
    /// has already read everything `rank` sent before it. The notice is
    /// charged nothing.
    pub(crate) fn depart(&self, rank: usize) {
        for (dest, tx) in self.senders.iter().enumerate() {
            if dest == rank {
                continue;
            }
            let notice = Envelope {
                src_world: rank,
                comm_id: DEPARTED_COMM_ID,
                tag: 0,
                bytes: 0,
                payload: Box::new(()),
            };
            // A rank that has left too has dropped its receiver: it waits
            // on nobody.
            let _ = tx.send(notice);
        }
    }
}

/// Per-rank inbound mailbox: the channel receiver, a buffer of messages
/// that arrived out of matching order, and the world ranks whose
/// departure notice ([`Fabric::depart`]) has arrived.
pub(crate) struct Mailbox {
    pub rx: Receiver<Envelope>,
    pub pending: Vec<Envelope>,
    pub departed: Vec<usize>,
}

impl Mailbox {
    fn take_matching(&mut self, src_world: usize, comm_id: u64, tag: u64) -> Option<Envelope> {
        let idx = self
            .pending
            .iter()
            .position(|e| e.src_world == src_world && e.comm_id == comm_id && e.tag == tag)?;
        Some(self.pending.swap_remove(idx))
    }
}

/// Identifier of the world communicator.
pub(crate) const WORLD_COMM_ID: u64 = 0;
/// Tag bit reserved for collective-internal messages.
pub(crate) const COLLECTIVE_TAG_BIT: u64 = 1 << 63;
/// Communicator id of a departure notice: even and nonzero, so neither
/// the world's id nor a derived (odd) one.
const DEPARTED_COMM_ID: u64 = 2;

fn derive_comm_id(parent: u64, split_seq: u64, color: u64) -> u64 {
    let mut h = DefaultHasher::new();
    (parent, split_seq, color).hash(&mut h);
    // Never collide with the world communicator id.
    h.finish() | 1
}

/// An MPI-style communicator: an ordered group of ranks that can exchange
/// point-to-point messages and participate in collectives.
///
/// A `Communicator` is a per-rank handle; it is cheap to clone and is not
/// `Send` (it never needs to leave its rank's thread).
pub struct Communicator {
    comm_id: u64,
    /// World ranks of the members, indexed by local rank.
    members: Arc<Vec<usize>>,
    /// This rank's index within `members`.
    my_local: usize,
    fabric: Arc<Fabric>,
    mailbox: Rc<RefCell<Mailbox>>,
    cost: Rc<RefCell<CostTracker>>,
    coll_seq: Rc<Cell<u64>>,
    split_seq: Rc<Cell<u64>>,
    /// Injected fault spec for the run (empty by default).
    faults: Arc<RankFaults>,
    /// Cached `faults.active()` — the per-site gate is one boolean test.
    faults_active: bool,
}

impl Communicator {
    pub(crate) fn world(
        world_rank: usize,
        world_size: usize,
        fabric: Arc<Fabric>,
        mailbox: Rc<RefCell<Mailbox>>,
        cost: Rc<RefCell<CostTracker>>,
        faults: Arc<RankFaults>,
    ) -> Self {
        let faults_active = faults.active();
        Communicator {
            comm_id: WORLD_COMM_ID,
            members: Arc::new((0..world_size).collect()),
            my_local: world_rank,
            fabric,
            mailbox,
            cost,
            coll_seq: Rc::new(Cell::new(0)),
            split_seq: Rc::new(Cell::new(0)),
            faults,
            faults_active,
        }
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.my_local
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// World rank of local rank `local`.
    pub fn world_rank_of(&self, local: usize) -> SimResult<usize> {
        self.members
            .get(local)
            .copied()
            .ok_or(SimError::InvalidRank { rank: local, size: self.members.len() })
    }

    /// Charge `n` arithmetic operations to this rank's cost tracker.
    pub fn add_flops(&self, n: u64) {
        self.cost.borrow_mut().add_flops(n);
    }

    /// Charge `bytes` of local memory traffic to this rank's tracker.
    pub fn add_mem_traffic(&self, bytes: u64) {
        self.cost.borrow_mut().add_mem_traffic(bytes);
    }

    /// Record one superstep (global synchronization) on this rank.
    pub fn record_superstep(&self) {
        self.cost.borrow_mut().record_superstep();
    }

    pub(crate) fn record_collective(&self) {
        self.cost.borrow_mut().record_collective();
    }

    /// This rank's cost counters so far — every communicator of the rank
    /// charges the same tracker, so the difference of two reads is
    /// exactly what the rank sent, received and ran in between.
    pub fn cost_snapshot(&self) -> CostTracker {
        self.cost.borrow().clone()
    }

    /// Open a tracing span for the collective `name`, capturing the cost
    /// counters so the drop can annotate the span with the modeled time.
    /// When tracing is disabled this is a single relaxed atomic load.
    pub(crate) fn collective_span(&self, name: &'static str) -> CollectiveSpan {
        let span = gas_obs::span("collective", name);
        let start = span.is_recording().then(|| self.cost_snapshot());
        CollectiveSpan { span, cost: Rc::clone(&self.cost), start }
    }

    /// Next collective-internal tag; all ranks of a communicator call
    /// collectives in the same order, so the sequence stays consistent.
    /// Each collective gets a window of 2^20 tags so multi-round
    /// algorithms can use `tag + round` without colliding with the next
    /// collective.
    pub(crate) fn next_coll_tag(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        COLLECTIVE_TAG_BIT | (seq << 20)
    }

    /// The injected fault spec this communicator runs under.
    pub fn faults(&self) -> &RankFaults {
        &self.faults
    }

    /// Is this rank itself injected as crashed?
    pub fn is_crashed(&self) -> bool {
        self.faults_active && self.faults.is_crashed(self.members[self.my_local])
    }

    /// World ranks that are not injected as crashed, ascending — the
    /// membership list survivors pass to [`Communicator::subgroup`].
    pub fn alive_world_ranks(&self) -> Vec<usize> {
        self.faults.alive_ranks(self.fabric.senders.len())
    }

    /// The effective receive timeout: the injected one, else — whenever
    /// any fault is active — a generous safety net, because a crashed
    /// peer can make an *alive* rank abort a collective mid-flight and
    /// leave another alive rank waiting on a message that will never be
    /// sent. `None` (block forever) only in fault-free runs.
    fn recv_timeout_micros(&self) -> Option<u64> {
        if !self.faults_active {
            return None;
        }
        const FAULTED_RUN_SAFETY_NET_US: u64 = 5_000_000;
        Some(self.faults.recv_timeout_micros().unwrap_or(FAULTED_RUN_SAFETY_NET_US))
    }

    /// Typed crash check for a communication touching world rank
    /// `world` (self or peer). `None` when no faults are configured —
    /// the common case costs one boolean test.
    fn crash_check(&self, world: usize) -> Option<SimError> {
        if !self.faults_active {
            return None;
        }
        let me_world = self.members[self.my_local];
        for rank in [me_world, world] {
            if self.faults.is_crashed(rank) {
                gas_obs::counter("gas_chaos_rank_crash_hits_total").inc();
                return Some(SimError::RankCrashed { rank });
            }
        }
        None
    }

    /// Send `data` to local rank `dest` with `tag`.
    ///
    /// User tags must not set the highest bit (reserved for collectives).
    pub fn send<T: Msg>(&self, dest: usize, tag: u64, data: T) -> SimResult<()> {
        let dest_world = self.world_rank_of(dest)?;
        if let Some(err) = self.crash_check(dest_world) {
            return Err(err);
        }
        if self.faults_active {
            let delay = self.faults.slow_micros(self.members[self.my_local]);
            if delay > 0 {
                gas_obs::counter("gas_chaos_slow_delays_total").inc();
                std::thread::sleep(std::time::Duration::from_micros(delay));
            }
        }
        let bytes = data.nbytes();
        self.cost.borrow_mut().record_send(bytes);
        let env = Envelope {
            src_world: self.members[self.my_local],
            comm_id: self.comm_id,
            tag,
            bytes,
            payload: Box::new(data),
        };
        self.fabric.senders[dest_world].send(env).map_err(|_| SimError::Disconnected { src: dest })
    }

    /// Receive a `T` from local rank `src` with `tag`, blocking until the
    /// matching message arrives. In a fault-free run a receive from a rank
    /// that has left the run (its closure returned or unwound) with no
    /// matching message fails with [`SimError::Disconnected`]; under a
    /// fault spec the wait is bounded by its timeout instead.
    pub fn recv<T: Msg>(&self, src: usize, tag: u64) -> SimResult<T> {
        let src_world = self.world_rank_of(src)?;
        if let Some(err) = self.crash_check(src_world) {
            return Err(err);
        }
        let mut mb = self.mailbox.borrow_mut();
        // Check the out-of-order buffer first.
        let env = if let Some(env) = mb.take_matching(src_world, self.comm_id, tag) {
            env
        } else if let Some(timeout_us) = self.recv_timeout_micros() {
            // Bounded wait instead of a blocking recv, so a slowed or
            // silent peer — e.g. an alive rank that aborted a collective
            // after hitting a crashed peer — surfaces as a typed Timeout
            // rather than a hung collective.
            let deadline = std::time::Instant::now() + std::time::Duration::from_micros(timeout_us);
            loop {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                let env = match mb.rx.recv_timeout(left) {
                    Ok(env) => env,
                    Err(RecvTimeoutError::Timeout) => {
                        gas_obs::counter("gas_chaos_timeouts_total").inc();
                        return Err(SimError::Timeout { src, waited_micros: timeout_us });
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(SimError::Disconnected { src });
                    }
                };
                if env.comm_id == DEPARTED_COMM_ID {
                    continue;
                }
                if env.src_world == src_world && env.comm_id == self.comm_id && env.tag == tag {
                    break env;
                }
                mb.pending.push(env);
            }
        } else {
            loop {
                if mb.departed.contains(&src_world) {
                    return Err(SimError::Disconnected { src });
                }
                let env = mb.rx.recv().map_err(|_| SimError::Disconnected { src })?;
                if env.comm_id == DEPARTED_COMM_ID {
                    mb.departed.push(env.src_world);
                    continue;
                }
                if env.src_world == src_world && env.comm_id == self.comm_id && env.tag == tag {
                    break env;
                }
                mb.pending.push(env);
            }
        };
        self.cost.borrow_mut().record_recv(env.bytes);
        env.payload.downcast::<T>().map(|b| *b).map_err(|_| SimError::TypeMismatch { src, tag })
    }

    /// Combined send to `dest` and receive from `src` (both local ranks).
    ///
    /// The send is posted before the receive, so exchanges along a ring or
    /// hypercube do not deadlock (channels are unbounded).
    pub fn sendrecv<T: Msg, U: Msg>(
        &self,
        dest: usize,
        send_tag: u64,
        data: T,
        src: usize,
        recv_tag: u64,
    ) -> SimResult<U> {
        self.send(dest, send_tag, data)?;
        self.recv(src, recv_tag)
    }

    /// Split the communicator into disjoint sub-communicators by `color`
    /// (MPI_Comm_split with `key = rank`). All ranks must call this with
    /// some color; ranks with equal colors end up in the same communicator,
    /// ordered by their rank in the parent.
    pub fn split(&self, color: u64) -> SimResult<Communicator> {
        // Gather (color, parent_rank) from everyone.
        let gathered: Vec<(u64, u64)> = self.allgather(&[(color, self.my_local as u64)])?;
        let split_seq = self.split_seq.get();
        self.split_seq.set(split_seq + 1);
        let mut members: Vec<usize> = gathered
            .iter()
            .filter(|(c, _)| *c == color)
            .map(|(_, r)| self.members[*r as usize])
            .collect();
        members
            .sort_by_key(|w| self.members.iter().position(|m| m == w).expect("member must exist"));
        let my_world = self.members[self.my_local];
        let my_local = members
            .iter()
            .position(|w| *w == my_world)
            .expect("calling rank must be a member of its own color group");
        Ok(Communicator {
            comm_id: derive_comm_id(self.comm_id, split_seq, color),
            members: Arc::new(members),
            my_local,
            fabric: Arc::clone(&self.fabric),
            mailbox: Rc::clone(&self.mailbox),
            cost: Rc::clone(&self.cost),
            coll_seq: Rc::new(Cell::new(0)),
            split_seq: Rc::new(Cell::new(0)),
            faults: Arc::clone(&self.faults),
            faults_active: self.faults_active,
        })
    }

    /// Form a sub-communicator over `members` (world ranks, strictly
    /// ascending) **without a collective**: unlike [`split`], no message
    /// exchange happens, so ranks outside `members` — crashed ones in
    /// particular — need not participate. Every member must call
    /// `subgroup` with the *same* list (the communicator id is derived
    /// from it), which is how survivors of an injected crash regroup:
    /// the fault spec is common knowledge, standing in for a membership
    /// service.
    ///
    /// [`split`]: Communicator::split
    pub fn subgroup(&self, members: &[usize]) -> SimResult<Communicator> {
        if members.is_empty() {
            return Err(SimError::InvalidWorldSize(0));
        }
        let world_size = self.fabric.senders.len();
        for pair in members.windows(2) {
            if pair[0] >= pair[1] {
                return Err(SimError::CollectiveMismatch(
                    "subgroup members must be strictly ascending".into(),
                ));
            }
        }
        if let Some(&last) = members.last() {
            if last >= world_size {
                return Err(SimError::InvalidRank { rank: last, size: world_size });
            }
        }
        let my_world = self.members[self.my_local];
        let Some(my_local) = members.iter().position(|&w| w == my_world) else {
            return Err(SimError::InvalidRank { rank: my_world, size: members.len() });
        };
        // Deterministic id from the member list itself: every member
        // computes the same id with no exchange. The "color" slot hashes
        // the list; the split_seq slot is a fixed salt distinguishing
        // subgroup ids from split ids of the same parent.
        let mut h = DefaultHasher::new();
        members.hash(&mut h);
        Ok(Communicator {
            comm_id: derive_comm_id(self.comm_id, u64::MAX, h.finish()),
            members: Arc::new(members.to_vec()),
            my_local,
            fabric: Arc::clone(&self.fabric),
            mailbox: Rc::clone(&self.mailbox),
            cost: Rc::clone(&self.cost),
            coll_seq: Rc::new(Cell::new(0)),
            split_seq: Rc::new(Cell::new(0)),
            faults: Arc::clone(&self.faults),
            faults_active: self.faults_active,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_nbytes_for_primitives_and_containers() {
        assert_eq!(3u8.nbytes(), 1);
        assert_eq!(3u64.nbytes(), 8);
        assert_eq!(1.5f64.nbytes(), 8);
        assert_eq!(().nbytes(), 0);
        assert_eq!("abcd".to_string().nbytes(), 4);
        assert_eq!(vec![1u32, 2, 3].nbytes(), 12);
        assert_eq!((1u8, 2u64).nbytes(), 9);
        assert_eq!((1u8, 2u64, 3u32).nbytes(), 13);
        assert_eq!((1u8, 2u64, 3u32, 4u16).nbytes(), 15);
        assert_eq!(Some(7u64).nbytes(), 9);
        assert_eq!(Option::<u64>::None.nbytes(), 1);
        assert_eq!(Box::new(5u32).nbytes(), 4);
        assert_eq!(Arc::new(vec![1u64, 2]).nbytes(), 16);
        assert_eq!(vec![vec![1u8, 2], vec![3u8]].nbytes(), 3);
    }

    #[test]
    fn derive_comm_id_is_deterministic_and_nonzero() {
        let a = derive_comm_id(0, 1, 5);
        let b = derive_comm_id(0, 1, 5);
        let c = derive_comm_id(0, 2, 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, WORLD_COMM_ID);
    }
}
