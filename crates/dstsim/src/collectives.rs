//! MPI-style collective operations on a [`Communicator`].
//!
//! Collectives are built from point-to-point messages using the standard
//! algorithms of production MPI libraries — binomial trees for
//! broadcast/reduce, a ring for allgather, direct exchange for
//! all-to-all-v, and Hillis–Steele doubling for scans — so the message
//! counts, byte volumes and round (superstep) counts charged to the cost
//! model match what a real distributed run would incur.
//!
//! All ranks of a communicator must call each collective in the same
//! order; internal messages are tagged with a per-communicator sequence
//! number so different collectives never interfere.

use crate::comm::{Communicator, Msg};
use crate::error::{SimError, SimResult};

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
        T: Msg + Clone,
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
        let mut acc: Vec<T> = data.to_vec();
        if p == 1 {
            return Ok(Some(acc));
        }
        let relative = (me + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if relative & mask == 0 {
                let src_rel = relative | mask;
                if src_rel < p {
                    let src = (src_rel + root) % p;
                    let other: Vec<T> = self.recv(src, tag)?;
                    if other.len() != acc.len() {
                        return Err(SimError::CollectiveMismatch(format!(
                            "reduce buffers differ in length: {} vs {}",
                            acc.len(),
                            other.len()
                        )));
                    }
                    for (a, b) in acc.iter_mut().zip(other.iter()) {
                        *a = op(a, b);
                    }
                    self.add_flops(acc.len() as u64);
                }
            } else {
                let dst_rel = relative & !mask;
                let dst = (dst_rel + root) % p;
                // This rank's one send, and its last use of `acc`.
                self.send(dst, tag, acc)?;
                self.record_superstep();
                return Ok(None);
            }
            self.record_superstep();
            mask <<= 1;
        }
        Ok(Some(acc))
    }

    /// Element-wise allreduce with a custom associative operation
    /// (reduce-to-root followed by broadcast).
    pub fn allreduce<T, F>(&self, data: &[T], op: F) -> SimResult<Vec<T>>
    where
        T: Msg + Clone,
        F: Fn(&T, &T) -> T,
    {
        let reduced = self.reduce(0, data, op)?;
        self.bcast(0, reduced)
    }

    /// Allreduce with element-wise addition.
    pub fn allreduce_sum<T>(&self, data: &[T]) -> SimResult<Vec<T>>
    where
        T: Msg + Clone + Copy + std::ops::Add<Output = T>,
    {
        self.allreduce(data, |a, b| *a + *b)
    }

    /// Allreduce with element-wise maximum.
    pub fn allreduce_max<T>(&self, data: &[T]) -> SimResult<Vec<T>>
    where
        T: Msg + Clone + Copy + PartialOrd,
    {
        self.allreduce(data, |a, b| if *a >= *b { *a } else { *b })
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

    /// Scatter one vector per destination rank from `root`. `data` must be
    /// `Some` on the root with exactly `p` entries.
    pub fn scatterv<T: Msg + Clone>(
        &self,
        root: usize,
        data: Option<Vec<Vec<T>>>,
    ) -> SimResult<Vec<T>> {
        self.record_collective();
        let _coll_span = self.collective_span("scatterv");
        let p = self.size();
        if root >= p {
            return Err(SimError::InvalidRank { rank: root, size: p });
        }
        let tag = self.next_coll_tag();
        let me = self.rank();
        if me == root {
            let mut data = data.ok_or_else(|| {
                SimError::CollectiveMismatch("scatterv root provided no data".to_string())
            })?;
            if data.len() != p {
                return Err(SimError::CollectiveMismatch(format!(
                    "scatterv root provided {} buffers for {} ranks",
                    data.len(),
                    p
                )));
            }
            for (dst, buf) in data.iter_mut().enumerate() {
                if dst != root {
                    self.send(dst, tag, std::mem::take(buf))?;
                }
            }
            self.record_superstep();
            Ok(std::mem::take(&mut data[root]))
        } else {
            let v = self.recv(root, tag)?;
            self.record_superstep();
            Ok(v)
        }
    }

    /// Personalized all-to-all with variable message sizes: `sendbufs[i]`
    /// goes to rank `i`; the result's entry `i` is the buffer received from
    /// rank `i`.
    pub fn alltoallv<T: Msg + Clone>(&self, sendbufs: Vec<Vec<T>>) -> SimResult<Vec<Vec<T>>> {
        self.record_collective();
        let _coll_span = self.collective_span("alltoallv");
        let p = self.size();
        if sendbufs.len() != p {
            return Err(SimError::CollectiveMismatch(format!(
                "alltoallv requires {} send buffers, got {}",
                p,
                sendbufs.len()
            )));
        }
        let tag = self.next_coll_tag();
        let me = self.rank();
        let mut out: Vec<Vec<T>> = vec![Vec::new(); p];
        let mut sendbufs = sendbufs;
        out[me] = std::mem::take(&mut sendbufs[me]);
        // Post all sends, then receive; channels are unbounded so this
        // cannot deadlock, and it mirrors the single-superstep h-relation.
        for offset in 1..p {
            let dst = (me + offset) % p;
            self.send(dst, tag, std::mem::take(&mut sendbufs[dst]))?;
        }
        for offset in 1..p {
            let src = (me + p - offset) % p;
            out[src] = self.recv(src, tag)?;
        }
        self.record_superstep();
        Ok(out)
    }

    /// Inclusive prefix sum (scan) of a scalar value across ranks
    /// (Hillis–Steele doubling, `⌈log₂ p⌉` rounds).
    pub fn scan_sum<T>(&self, value: T) -> SimResult<T>
    where
        T: Msg + Clone + Copy + std::ops::Add<Output = T>,
    {
        self.record_collective();
        let _coll_span = self.collective_span("scan_sum");
        let p = self.size();
        let me = self.rank();
        let tag = self.next_coll_tag();
        let mut incl = value;
        let mut d = 1usize;
        let mut round = 0u64;
        while d < p {
            if me + d < p {
                self.send(me + d, tag + round, incl)?;
            }
            if me >= d {
                let other: T = self.recv(me - d, tag + round)?;
                incl = other + incl;
                self.add_flops(1);
            }
            self.record_superstep();
            d <<= 1;
            round += 1;
        }
        Ok(incl)
    }

    /// Exclusive prefix sum: the sum of the values of all lower ranks
    /// (zero of `T` must be provided by `T: Default`; rank 0 receives it).
    pub fn exscan_sum<T>(&self, value: T) -> SimResult<T>
    where
        T: Msg + Clone + Copy + Default + std::ops::Add<Output = T> + std::ops::Sub<Output = T>,
    {
        let incl = self.scan_sum(value)?;
        Ok(incl - value)
    }

    /// Reduce-scatter with addition: element-wise sum of `data` across all
    /// ranks, then each rank keeps the block of the result assigned to it
    /// by `block_of` (a partition of indices into `p` contiguous blocks of
    /// the given lengths). Implemented as reduce + scatterv.
    pub fn reduce_scatter_sum<T>(&self, data: &[T], block_lens: &[usize]) -> SimResult<Vec<T>>
    where
        T: Msg + Clone + Copy + std::ops::Add<Output = T>,
    {
        let p = self.size();
        if block_lens.len() != p {
            return Err(SimError::CollectiveMismatch(format!(
                "reduce_scatter_sum needs {} block lengths, got {}",
                p,
                block_lens.len()
            )));
        }
        if block_lens.iter().sum::<usize>() != data.len() {
            return Err(SimError::CollectiveMismatch(
                "block lengths must sum to the buffer length".to_string(),
            ));
        }
        let reduced = self.reduce(0, data, |a, b| *a + *b)?;
        let chunks = reduced.map(|full| {
            let mut out = Vec::with_capacity(p);
            let mut offset = 0;
            for &len in block_lens {
                out.push(full[offset..offset + len].to_vec());
                offset += len;
            }
            out
        });
        self.scatterv(0, chunks)
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
    fn allreduce_sum_and_max() {
        let p = 5;
        let out = Runtime::new(p)
            .run(|ctx| {
                let mine = vec![ctx.rank() as u64, 100 - ctx.rank() as u64];
                let sum = ctx.world().allreduce_sum(&mine).unwrap();
                let max = ctx.world().allreduce_max(&mine).unwrap();
                (sum, max)
            })
            .unwrap();
        for (sum, max) in out.results {
            assert_eq!(sum, vec![10, 490]);
            assert_eq!(max, vec![4, 100]);
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
    fn scatterv_distributes_blocks() {
        let p = 4;
        let out = Runtime::new(p)
            .run(|ctx| {
                let data = if ctx.rank() == 0 {
                    Some((0..4).map(|i| vec![i as u64 * 10, i as u64 * 10 + 1]).collect())
                } else {
                    None
                };
                ctx.world().scatterv(0, data).unwrap()
            })
            .unwrap();
        for (r, v) in out.results.iter().enumerate() {
            assert_eq!(v, &vec![r as u64 * 10, r as u64 * 10 + 1]);
        }
    }

    #[test]
    fn alltoallv_transposes_buffers() {
        let p = 4;
        let out = Runtime::new(p)
            .run(|ctx| {
                let me = ctx.rank();
                // Send [me, dst] to each dst.
                let bufs: Vec<Vec<u64>> = (0..p).map(|dst| vec![me as u64, dst as u64]).collect();
                ctx.world().alltoallv(bufs).unwrap()
            })
            .unwrap();
        for (me, received) in out.results.iter().enumerate() {
            for (src, buf) in received.iter().enumerate() {
                assert_eq!(buf, &vec![src as u64, me as u64]);
            }
        }
    }

    #[test]
    fn scan_and_exscan_compute_prefix_sums() {
        let p = 7;
        let out = Runtime::new(p)
            .run(|ctx| {
                let v = (ctx.rank() + 1) as u64;
                let incl = ctx.world().scan_sum(v).unwrap();
                let excl = ctx.world().exscan_sum(v).unwrap();
                (incl, excl)
            })
            .unwrap();
        for (rank, (incl, excl)) in out.results.iter().enumerate() {
            let expected_incl: u64 = (1..=rank as u64 + 1).sum();
            assert_eq!(*incl, expected_incl);
            assert_eq!(*excl, expected_incl - (rank as u64 + 1));
        }
    }

    #[test]
    fn reduce_scatter_sum_partitions_result() {
        let p = 3;
        let out = Runtime::new(p)
            .run(|ctx| {
                let data = vec![1u64; 6];
                ctx.world().reduce_scatter_sum(&data, &[1, 2, 3]).unwrap()
            })
            .unwrap();
        assert_eq!(out.results[0], vec![3]);
        assert_eq!(out.results[1], vec![3, 3]);
        assert_eq!(out.results[2], vec![3, 3, 3]);
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
