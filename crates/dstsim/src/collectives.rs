//! MPI-style collective operations on a [`Communicator`].
//!
//! Collectives are built from point-to-point messages using the standard
//! algorithms of production MPI libraries — a dissemination barrier,
//! binomial trees for broadcast/reduce, direct sends for gather and a
//! ring for allgather — so the message counts, byte volumes and round
//! (superstep) counts charged to the cost model match what a real
//! distributed run would incur.
//!
//! All ranks of a communicator must call each collective in the same
//! order; internal messages are tagged with a per-communicator sequence
//! number so different collectives never interfere.

use std::sync::Arc;

use crate::comm::{Communicator, Msg};
use crate::error::{SimError, SimResult};

/// Make the kept buffer `buf` a copy of `from`, in its own allocation
/// where that fits, giving back capacity beyond twice `from`'s length (the
/// most a growing `Vec` keeps unused): a buffer reused call after call
/// holds at most twice its last use.
fn copy_into<T: Clone>(buf: &mut Vec<T>, from: &[T]) {
    buf.clear();
    if buf.capacity() > from.len().saturating_mul(2) {
        buf.shrink_to(from.len());
    }
    buf.reserve_exact(from.len());
    buf.extend_from_slice(from);
}

impl Communicator {
    /// Synchronize all ranks (dissemination barrier, `⌈log₂ p⌉` rounds).
    pub fn barrier(&self) -> SimResult<()> {
        self.record_collective();
        let _coll_span = self.collective_span("barrier");
        let p = self.size();
        if p == 1 {
            self.record_superstep();
            return Ok(());
        }
        let tag_base = self.next_coll_tag();
        let me = self.rank();
        let mut d = 1usize;
        let mut round = 0u64;
        while d < p {
            let dest = (me + d) % p;
            let src = (me + p - d % p) % p;
            self.send(dest, tag_base + round, 0u8)?;
            let _: u8 = self.recv(src, tag_base + round)?;
            self.record_superstep();
            d <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Broadcast `data` from `root` to every rank (binomial tree).
    ///
    /// Non-root ranks may pass `None`; the broadcast value is returned on
    /// every rank.
    pub fn bcast<T: Msg + Clone>(&self, root: usize, data: Option<T>) -> SimResult<T> {
        self.record_collective();
        let _coll_span = self.collective_span("bcast");
        let p = self.size();
        if root >= p {
            return Err(SimError::InvalidRank { rank: root, size: p });
        }
        let me = self.rank();
        if p == 1 {
            return data.ok_or_else(|| {
                SimError::CollectiveMismatch("bcast root provided no data".to_string())
            });
        }
        let tag = self.next_coll_tag();
        let relative = (me + p - root) % p;
        let mut value: Option<T> = if relative == 0 {
            Some(data.ok_or_else(|| {
                SimError::CollectiveMismatch("bcast root provided no data".to_string())
            })?)
        } else {
            None
        };
        // Receive phase: find the bit at which this rank gets the value.
        let mut mask = 1usize;
        while mask < p {
            if relative & mask != 0 {
                let src = (relative - mask + root) % p;
                value = Some(self.recv(src, tag)?);
                self.record_superstep();
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to the sub-tree below this rank.
        let v = value.expect("every rank receives the broadcast value");
        mask >>= 1;
        while mask > 0 {
            if relative + mask < p {
                let dst = (relative + mask + root) % p;
                self.send(dst, tag, v.clone())?;
                self.record_superstep();
            }
            mask >>= 1;
        }
        Ok(v)
    }

    /// Reduce `data` element-wise with `op` onto `root` (binomial tree).
    /// Returns `Some(result)` on the root and `None` elsewhere.
    pub fn reduce<T, F>(&self, root: usize, data: &[T], op: F) -> SimResult<Option<Vec<T>>>
    where
        T: Msg + Clone + Sync,
        F: Fn(&T, &T) -> T,
    {
        let mut acc = Arc::new(data.to_vec());
        let on_root = self.reduce_tree(root, &mut acc, &op)?;
        // The root's buffer never left it: unwrapping it does not copy.
        Ok(on_root.then(|| Arc::unwrap_or_clone(acc)))
    }

    /// The binomial reduce tree behind [`Communicator::reduce`] and
    /// [`Communicator::allreduce_in_place`]: `acc` holds this rank's
    /// contribution, and on the root (the return is `true`) the result.
    /// A non-root rank sends its parent `Arc::clone(acc)` — no copy — and
    /// returns `false`; the parent folds it in and drops it before it
    /// sends on, so `acc` is the rank's alone again once anything the root
    /// sends after this reduce reaches it.
    fn reduce_tree<T, F>(&self, root: usize, acc: &mut Arc<Vec<T>>, op: &F) -> SimResult<bool>
    where
        T: Msg + Clone + Sync,
        F: Fn(&T, &T) -> T,
    {
        self.record_collective();
        let _coll_span = self.collective_span("reduce");
        let p = self.size();
        if root >= p {
            return Err(SimError::InvalidRank { rank: root, size: p });
        }
        let me = self.rank();
        let tag = self.next_coll_tag();
        if p == 1 {
            return Ok(true);
        }
        let relative = (me + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if relative & mask == 0 {
                let src_rel = relative | mask;
                if src_rel < p {
                    let src = (src_rel + root) % p;
                    let other: Arc<Vec<T>> = self.recv(src, tag)?;
                    if other.len() != acc.len() {
                        return Err(SimError::CollectiveMismatch(format!(
                            "reduce buffers differ in length: {} vs {}",
                            acc.len(),
                            other.len()
                        )));
                    }
                    for (a, b) in Arc::make_mut(acc).iter_mut().zip(other.iter()) {
                        *a = op(a, b);
                    }
                    self.add_flops(acc.len() as u64);
                }
            } else {
                let dst_rel = relative & !mask;
                let dst = (dst_rel + root) % p;
                // This rank's one send.
                self.send(dst, tag, Arc::clone(acc))?;
                self.record_superstep();
                return Ok(false);
            }
            self.record_superstep();
            mask <<= 1;
        }
        Ok(true)
    }

    /// Element-wise allreduce with a custom associative operation
    /// (reduce-to-root followed by broadcast).
    pub fn allreduce<T, F>(&self, data: &[T], op: F) -> SimResult<Vec<T>>
    where
        T: Msg + Clone + Sync,
        F: Fn(&T, &T) -> T,
    {
        let reduced = self.reduce(0, data, op)?;
        self.bcast(0, reduced)
    }

    /// [`Communicator::allreduce`] over buffers the caller keeps across
    /// calls: `data` holds this rank's contribution on entry and the
    /// result on return, and `payload` is the buffer the root broadcasts
    /// from (unused elsewhere). No rank copies a buffer to send it:
    /// contributions travel up the reduce tree as `Arc` clones that each
    /// parent folds in and drops before it sends on, and the root copies
    /// the result into `payload` and broadcasts that `Arc`, which every
    /// other rank copies into its `data`. So each buffer is its rank's
    /// alone again by the time the rank writes it — `data` once the
    /// broadcast has arrived, the root's `payload` once the next call's
    /// reduce has — and a call whose length fits the buffers' capacity
    /// allocates nothing of the buffers' size (one under half of it gives
    /// the excess back, so neither holds more than twice its last use).
    /// Messages, bytes, supersteps and collectives are exactly those of
    /// `allreduce`.
    pub fn allreduce_in_place<T, F>(
        &self,
        data: &mut Vec<T>,
        payload: &mut Arc<Vec<T>>,
        op: F,
    ) -> SimResult<()>
    where
        T: Msg + Clone + Sync,
        F: Fn(&T, &T) -> T,
    {
        let mut acc = Arc::new(std::mem::take(data));
        if self.reduce_tree(0, &mut acc, &op)? {
            *data = Arc::unwrap_or_clone(acc);
            if Arc::get_mut(payload).is_none() {
                // A rank still holds an earlier result. The order above
                // rules that out; a fresh buffer is right regardless.
                *payload = Arc::default();
            }
            copy_into(Arc::get_mut(payload).expect("a fresh payload is unshared"), data);
            self.bcast(0, Some(Arc::clone(payload)))?;
        } else {
            let result: Arc<Vec<T>> = self.bcast(0, None)?;
            // The parent dropped its clone before sending on, so the
            // buffer is this rank's again (else a fresh one replaces it).
            *data = Arc::try_unwrap(acc).unwrap_or_default();
            copy_into(data, &result);
        }
        Ok(())
    }

    /// Allreduce with element-wise addition.
    pub fn allreduce_sum<T>(&self, data: &[T]) -> SimResult<Vec<T>>
    where
        T: Msg + Clone + Copy + Sync + std::ops::Add<Output = T>,
    {
        self.allreduce(data, |a, b| *a + *b)
    }

    /// Gather variable-length contributions onto `root`. Returns
    /// `Some(per-rank vectors)` on the root, `None` elsewhere.
    pub fn gatherv<T: Msg + Clone>(
        &self,
        root: usize,
        data: &[T],
    ) -> SimResult<Option<Vec<Vec<T>>>> {
        self.record_collective();
        let _coll_span = self.collective_span("gatherv");
        let p = self.size();
        if root >= p {
            return Err(SimError::InvalidRank { rank: root, size: p });
        }
        let tag = self.next_coll_tag();
        let me = self.rank();
        if me == root {
            let mut out: Vec<Vec<T>> = vec![Vec::new(); p];
            out[root] = data.to_vec();
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = self.recv(src, tag)?;
                }
            }
            self.record_superstep();
            Ok(Some(out))
        } else {
            self.send(root, tag, data.to_vec())?;
            self.record_superstep();
            Ok(None)
        }
    }

    /// Gather variable-length contributions from every rank onto every rank
    /// (ring algorithm, `p − 1` rounds). Returns the per-rank vectors in
    /// rank order.
    pub fn allgatherv<T: Msg + Clone>(&self, data: &[T]) -> SimResult<Vec<Vec<T>>> {
        self.record_collective();
        let _coll_span = self.collective_span("allgatherv");
        let p = self.size();
        let me = self.rank();
        let mut blocks: Vec<Option<Vec<T>>> = vec![None; p];
        blocks[me] = Some(data.to_vec());
        if p == 1 {
            return Ok(blocks.into_iter().map(|b| b.unwrap()).collect());
        }
        let tag = self.next_coll_tag();
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        for step in 0..p - 1 {
            // Block that originated at rank (me - step) travels to the right.
            let send_origin = (me + p - step) % p;
            let recv_origin = (me + p - step - 1) % p;
            let to_send = blocks[send_origin]
                .clone()
                .expect("block to forward must have been received in a previous round");
            let received: Vec<T> =
                self.sendrecv(right, tag + step as u64, to_send, left, tag + step as u64)?;
            blocks[recv_origin] = Some(received);
            self.record_superstep();
        }
        Ok(blocks.into_iter().map(|b| b.unwrap()).collect())
    }

    /// Allgather returning the concatenation of all contributions in rank
    /// order.
    pub fn allgather<T: Msg + Clone>(&self, data: &[T]) -> SimResult<Vec<T>> {
        Ok(self.allgatherv(data)?.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::Runtime;

    #[test]
    fn barrier_completes_for_various_sizes() {
        for p in [1, 2, 3, 5, 8] {
            let out = Runtime::new(p).run(|ctx| ctx.world().barrier().unwrap()).unwrap();
            assert_eq!(out.results.len(), p);
        }
    }

    #[test]
    fn bcast_distributes_root_value() {
        for p in [1, 2, 3, 4, 7] {
            for root in [0, p - 1] {
                let out = Runtime::new(p)
                    .run(|ctx| {
                        let data =
                            if ctx.rank() == root { Some(vec![1u64, 2, 3, 4]) } else { None };
                        ctx.world().bcast(root, data).unwrap()
                    })
                    .unwrap();
                for r in out.results {
                    assert_eq!(r, vec![1, 2, 3, 4]);
                }
            }
        }
    }

    #[test]
    fn bcast_invalid_root_errors() {
        let out = Runtime::new(2).run(|ctx| ctx.world().bcast(5, Some(1u8)).is_err()).unwrap();
        assert!(out.results.iter().all(|&e| e));
    }

    #[test]
    fn reduce_sums_on_root_only() {
        let p = 6;
        let out = Runtime::new(p)
            .run(|ctx| {
                let mine = vec![ctx.rank() as u64, 1u64];
                ctx.world().reduce(2, &mine, |a, b| a + b).unwrap()
            })
            .unwrap();
        let expected: u64 = (0..p as u64).sum();
        for (rank, r) in out.results.iter().enumerate() {
            if rank == 2 {
                assert_eq!(r.as_ref().unwrap(), &vec![expected, p as u64]);
            } else {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn allreduce_sum_adds_elementwise() {
        let p = 5;
        let out = Runtime::new(p)
            .run(|ctx| {
                let mine = vec![ctx.rank() as u64, 100 - ctx.rank() as u64];
                ctx.world().allreduce_sum(&mine).unwrap()
            })
            .unwrap();
        for sum in out.results {
            assert_eq!(sum, vec![10, 490]);
        }
    }

    #[test]
    fn allreduce_in_place_is_allreduce_and_reuses_its_buffers() {
        // The counters a run charges, without its wall-clock time.
        let counts = |reports: &[crate::cost::CostReport]| -> Vec<[u64; 7]> {
            let fields = |r: &crate::cost::CostReport| {
                let [a, b, c, d] = [r.msgs_sent, r.msgs_received, r.bytes_sent, r.bytes_received];
                [a, b, c, d, r.flops, r.supersteps, r.collectives]
            };
            reports.iter().map(fields).collect()
        };
        // Three calls of 300 words, then one of 100.
        let contribution = |rank: usize, call: u64| -> Vec<u64> {
            let len = if call < 3 { 300 } else { 100 };
            (0..len).map(|i| ((i * 7 + call) << (rank % 5)) | ((rank as u64 + i) % 3)).collect()
        };
        for p in [1usize, 2, 3, 5, 8] {
            let or = |a: &u64, b: &u64| *a | *b;
            let plain = Runtime::new(p)
                .run(|ctx| {
                    let calls = (0..4).map(|call| contribution(ctx.rank(), call));
                    calls.map(|mine| ctx.world().allreduce(&mine, or).unwrap()).collect::<Vec<_>>()
                })
                .unwrap();
            let kept = Runtime::new(p)
                .run(|ctx| {
                    // Spare capacity no fresh buffer of 300 words would
                    // have, under the twice-the-use bound: it stays only
                    // if both buffers are reused.
                    let mut data = Vec::with_capacity(500);
                    let mut payload = std::sync::Arc::new(Vec::with_capacity(500));
                    let mut results = Vec::new();
                    let mut capacities = Vec::new();
                    for call in 0..4 {
                        data.clear();
                        data.extend(contribution(ctx.rank(), call));
                        ctx.world().allreduce_in_place(&mut data, &mut payload, or).unwrap();
                        results.push(data.clone());
                        capacities.push((data.capacity(), payload.capacity()));
                    }
                    (results, capacities)
                })
                .unwrap();
            assert_eq!(counts(&kept.reports), counts(&plain.reports), "p = {p}");
            for (rank, ((results, capacities), expected)) in
                kept.results.iter().zip(&plain.results).enumerate()
            {
                assert_eq!(results, expected, "p = {p}, rank {rank}");
                assert!(capacities[..3].iter().all(|&c| c == (500, 500)), "p = {p}, rank {rank}");
                // The last call, under half of it, gives the excess back of
                // the buffer it fills: the root's payload, another rank's
                // result.
                let (data, payload) = capacities[3];
                let filled = if rank == 0 { payload } else { data };
                assert!(filled <= 200, "p = {p}, rank {rank}: {filled}");
            }
        }
    }

    #[test]
    fn allgatherv_returns_rank_ordered_blocks() {
        let p = 4;
        let out = Runtime::new(p)
            .run(|ctx| {
                // Rank r contributes r+1 copies of r.
                let mine = vec![ctx.rank() as u32; ctx.rank() + 1];
                ctx.world().allgatherv(&mine).unwrap()
            })
            .unwrap();
        for blocks in out.results {
            assert_eq!(blocks.len(), p);
            for (r, b) in blocks.iter().enumerate() {
                assert_eq!(b, &vec![r as u32; r + 1]);
            }
        }
    }

    #[test]
    fn gatherv_collects_on_root() {
        let p = 3;
        let out = Runtime::new(p)
            .run(|ctx| ctx.world().gatherv(1, &[ctx.rank() as u16]).unwrap())
            .unwrap();
        assert!(out.results[0].is_none());
        assert!(out.results[2].is_none());
        assert_eq!(out.results[1].as_ref().unwrap(), &vec![vec![0u16], vec![1], vec![2]]);
    }

    #[test]
    fn split_creates_independent_row_communicators() {
        let p = 6;
        let out = Runtime::new(p)
            .run(|ctx| {
                // Two groups: even ranks and odd ranks.
                let color = (ctx.rank() % 2) as u64;
                let sub = ctx.world().split(color).unwrap();
                let sum = sub.allreduce_sum(&[ctx.rank() as u64]).unwrap()[0];
                (sub.rank(), sub.size(), sum)
            })
            .unwrap();
        for (rank, (sub_rank, sub_size, sum)) in out.results.iter().enumerate() {
            assert_eq!(*sub_size, 3);
            assert_eq!(*sub_rank, rank / 2);
            let expected: u64 = if rank % 2 == 0 { 2 + 4 } else { 1 + 3 + 5 };
            assert_eq!(*sum, expected);
        }
    }

    #[test]
    fn collective_spans_carry_predicted_cost() {
        gas_obs::set_enabled(true);
        Runtime::new(2)
            .run(|ctx| {
                ctx.world().allreduce_sum(&vec![1u64; 64]).unwrap();
            })
            .unwrap();
        gas_obs::set_enabled(false);
        let events = gas_obs::take_events();
        let colls: Vec<_> = events.iter().filter(|e| e.phase == "collective").collect();
        // allreduce decomposes into a reduce followed by a bcast.
        assert!(colls.iter().any(|e| e.name == "reduce"));
        assert!(colls.iter().any(|e| e.name == "bcast"));
        for e in &colls {
            let predicted = e
                .attrs
                .iter()
                .find(|(k, _)| *k == "predicted_us")
                .map(|(_, v)| *v)
                .expect("every collective span carries a predicted cost");
            assert!(predicted > 0.0, "{} predicted {predicted}", e.name);
        }
    }

    #[test]
    fn collective_costs_are_charged() {
        let p = 4;
        let out = Runtime::new(p)
            .run(|ctx| {
                ctx.world().allreduce_sum(&vec![1u64; 128]).unwrap();
            })
            .unwrap();
        let agg = out.aggregate();
        assert!(agg.total_bytes_sent > 0);
        assert!(agg.max_supersteps > 0);
        // Reduce+bcast over 4 ranks moves far less than p^2 messages.
        assert!(agg.total_msgs <= 2 * 4 * 3);
    }
}
