//! Deterministic macroblock-row slice partitioning, and the one runner
//! that executes a VOP's slices on the worker pool.
//!
//! One function, shared by encoder and decoder, defines how a VOP's
//! macroblock rows split into slices. The partition depends only on the
//! row count and the requested slice count — never on the thread count
//! executing it — which is the root of the pipeline's bit-exactness
//! guarantee: workers only *schedule* slices, they cannot change them.
//!
//! Both directions then run their slices through [`run_chains`]: each
//! slice is a chain of row tasks carrying one [`SliceJob`] and its
//! forked memory model from task to task. The encoder and decoder each
//! supply only the job — what a slice does before its first row, per
//! row, and after its last row. The runner owns the rest: the per-task
//! domain span, the result slot and the panic boundary.

use crate::encoder::Bbox;
use crate::mbops::MvPredictor;
use crate::texture::TextureCoder;
use m4ps_memsim::ParallelModel;
use m4ps_obs::Phase;
use m4ps_pool::{Scope, WorkerPool};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Splits the macroblock-row range `rows` into at most `slices`
/// contiguous, non-empty, in-order sub-ranges.
///
/// The first `rows.len() % n` slices get one extra row, so slice sizes
/// differ by at most one. Requests for more slices than rows (or zero
/// slices) are clamped; an empty input yields a single empty slice so
/// callers need no special case.
pub(crate) fn partition_rows(rows: Range<usize>, slices: usize) -> Vec<Range<usize>> {
    let n = rows.len();
    let count = slices.clamp(1, n.max(1));
    let base = n / count;
    let extra = n % count;
    let mut out = Vec::with_capacity(count);
    let mut start = rows.start;
    for s in 0..count {
        let len = base + usize::from(s < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, rows.end);
    out
}

/// Simulated-address stride between the per-slice bitstream staging
/// buffers. Each slice charges its bitstream traffic to its own 64 KiB
/// window past the parent's write position, so the charge addresses are
/// a function of the slice index alone — never of which thread ran the
/// slice — keeping merged counters scheduling-independent.
pub(crate) const SLICE_CHARGE_SPAN: u64 = 64 * 1024;

/// Reusable per-slice coding state: the texture pipeline's traced
/// scratch buffers and the slice's motion-vector predictors. Cloned
/// from the coder's template once per slice index and recycled every
/// VOP — texture clones keep their simulated base addresses, so reuse
/// charges exactly the traffic a fresh clone would.
#[derive(Debug)]
pub(crate) struct SliceScratch {
    pub(crate) texture: TextureCoder,
    pub(crate) fwd_pred: MvPredictor,
    pub(crate) bwd_pred: MvPredictor,
}

impl SliceScratch {
    pub(crate) fn new(template: &TextureCoder, mb_cols: usize) -> Self {
        SliceScratch {
            texture: template.clone(),
            fwd_pred: MvPredictor::new(mb_cols),
            bwd_pred: MvPredictor::new(mb_cols),
        }
    }

    /// Grows `scratch` to at least `n` entries cloned from `template`.
    pub(crate) fn reserve(
        scratch: &mut Vec<SliceScratch>,
        n: usize,
        template: &TextureCoder,
        mb_cols: usize,
    ) {
        while scratch.len() < n {
            scratch.push(SliceScratch::new(template, mb_cols));
        }
    }
}

/// The macroblock columns and rows a VOP covers: its bounding box in
/// macroblocks, or the whole frame for rectangular VOPs.
pub(crate) fn mb_ranges(
    bbox: Option<Bbox>,
    mb_cols: usize,
    mb_rows: usize,
) -> (Range<usize>, Range<usize>) {
    match bbox {
        Some((x0, y0, bw, bh)) => (x0 / 16..(x0 + bw) / 16, y0 / 16..(y0 + bh) / 16),
        None => (0..mb_cols, 0..mb_rows),
    }
}

/// One slice's work, cut into macroblock rows, against memory model `M`.
///
/// A job runs either as a chain on the pool (see [`run_chains`], on a
/// forked model) or inline on the caller's model: the same `begin` and
/// `row` calls in the same order either way.
pub(crate) trait SliceJob<M>: Send {
    /// Read-shared state of the whole VOP.
    type Ctx: Sync;
    /// What a finished slice hands back to the coordinator.
    type Out: Send;
    /// A clean per-slice failure.
    type Error: Send;
    /// Slice prologue, run before the first row.
    fn begin(&mut self, ctx: &Self::Ctx) -> Result<(), Self::Error>;
    /// Codes macroblock row `mby`.
    fn row(&mut self, mem: &mut M, ctx: &Self::Ctx, mby: usize) -> Result<(), Self::Error>;
    /// Slice epilogue, run after the last row.
    fn finish(self, mem: &mut M, ctx: &Self::Ctx) -> Self::Out;
}

/// A slice's chain state, moved from one row task to the next: the
/// job, its forked counter stream and the row cursor. Moving the whole
/// state along the chain is what pins determinism — each fork sees
/// exactly the access sequence one coarse slice job would produce,
/// just cut into one task per `grain` rows.
pub(crate) struct Chain<M, J> {
    mem: M,
    job: J,
    rows: Range<usize>,
    next: usize,
}

impl<M, J> Chain<M, J> {
    /// A chain that codes `rows` with `job` against the fork `mem`.
    pub(crate) fn new(mem: M, job: J, rows: Range<usize>) -> Self {
        let next = rows.start;
        Chain {
            mem,
            job,
            rows,
            next,
        }
    }
}

/// How a chain ended: `Ok(Ok((out, fork)))` when it finished,
/// `Ok(Err(e))` for a clean per-slice error (its fork is dropped
/// unabsorbed), `Err(payload)` when a task panicked.
pub(crate) type ChainResult<M, J> =
    std::thread::Result<Result<(<J as SliceJob<M>>::Out, M), <J as SliceJob<M>>::Error>>;

type Slot<M, J> = Mutex<Option<ChainResult<M, J>>>;

/// Runs `job` over `rows` inline on the caller's model: the chain a
/// one-slice VOP would be, without a fork or a task.
pub(crate) fn run_inline<M, J: SliceJob<M>>(
    mem: &mut M,
    ctx: &J::Ctx,
    job: &mut J,
    rows: Range<usize>,
) -> Result<(), J::Error> {
    job.begin(ctx)?;
    for mby in rows {
        job.row(mem, ctx, mby)?;
    }
    Ok(())
}

/// Spawns every chain's first task into one pool scope and returns
/// each chain's result, in chain order, once all of them finished.
///
/// Each task advances its chain by up to `grain` rows under a *domain*
/// span of `phase`: the task charges its fork, not the caller's model,
/// so its delta must not be subtracted from the lexical parent phase
/// (the coordinator accounts for the fork via `m4ps_obs::absorbed`
/// when it absorbs it). Spans are per task, so each worker's span
/// stack stays balanced, and the per-task deltas sum to the fork
/// total. A panic anywhere in a task is caught at the task boundary
/// and ends only that chain, so the pool is never poisoned and the
/// other chains still run.
pub(crate) fn run_chains<'a, M, J>(
    pool: &WorkerPool,
    phase: Phase,
    grain: usize,
    ctx: &'a J::Ctx,
    chains: Vec<Chain<M, J>>,
) -> Vec<ChainResult<M, J>>
where
    M: ParallelModel + 'a,
    J: SliceJob<M> + 'a,
{
    let slots: Vec<Slot<M, J>> = chains.iter().map(|_| Mutex::new(None)).collect();
    let session = m4ps_obs::current();
    pool.scope(session.as_ref(), |scope| {
        for (chain, slot) in chains.into_iter().zip(&slots) {
            scope.spawn(move |s| chain_step(chain, phase, grain, ctx, slot, s));
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slice slot lock")
                .expect("scope waits for every slice chain")
        })
        .collect()
}

/// One task of a chain: the slice prologue on the first task, up to
/// `grain` rows, then either the continuation (the wavefront "row N+1
/// ready" edge) or the epilogue into the chain's result slot.
fn chain_step<'s, M, J>(
    mut chain: Chain<M, J>,
    phase: Phase,
    grain: usize,
    ctx: &'s J::Ctx,
    slot: &'s Slot<M, J>,
    scope: &Scope<'s>,
) where
    M: ParallelModel + 's,
    J: SliceJob<M> + 's,
{
    let obs_on = m4ps_obs::enabled();
    if obs_on {
        m4ps_obs::enter_domain(phase, *chain.mem.counters());
    }
    let ran = catch_unwind(AssertUnwindSafe(|| {
        if chain.next == chain.rows.start {
            chain.job.begin(ctx)?;
        }
        let stop = chain.next.saturating_add(grain).min(chain.rows.end);
        while chain.next < stop {
            chain.job.row(&mut chain.mem, ctx, chain.next)?;
            chain.next += 1;
        }
        Ok(())
    }));
    let (result, end): (ChainResult<M, J>, _) = match ran {
        Ok(Ok(())) if chain.next < chain.rows.end => {
            if obs_on {
                m4ps_obs::exit_domain(phase, *chain.mem.counters());
            }
            scope.spawn(move |s| chain_step(chain, phase, grain, ctx, slot, s));
            return;
        }
        Ok(Ok(())) => {
            let Chain { mut mem, job, .. } = chain;
            let out = catch_unwind(AssertUnwindSafe(|| job.finish(&mut mem, ctx)));
            let end = *mem.counters();
            (out.map(|out| Ok((out, mem))), end)
        }
        Ok(Err(e)) => (Ok(Err(e)), *chain.mem.counters()),
        Err(payload) => (Err(payload), *chain.mem.counters()),
    };
    if obs_on {
        m4ps_obs::exit_domain(phase, end);
    }
    *slot.lock().expect("slice slot lock") = Some(result);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_range_in_order_without_gaps() {
        for total in 1..40usize {
            for slices in 1..10usize {
                let parts = partition_rows(3..3 + total, slices);
                assert_eq!(parts.len(), slices.min(total));
                assert_eq!(parts[0].start, 3);
                assert_eq!(parts.last().unwrap().end, 3 + total);
                for w in parts.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let sizes: Vec<usize> = parts.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "uneven split {sizes:?}");
                assert!(*min >= 1);
            }
        }
    }

    #[test]
    fn degenerate_inputs_are_clamped() {
        assert_eq!(partition_rows(0..9, 0), vec![0..9]);
        assert_eq!(partition_rows(0..2, 5), vec![0..1, 1..2]);
        assert_eq!(partition_rows(4..4, 3), vec![4..4]);
    }

    #[test]
    fn nine_rows_four_slices_front_loads_remainder() {
        assert_eq!(partition_rows(0..9, 4), vec![0..3, 3..5, 5..7, 7..9]);
    }
}
