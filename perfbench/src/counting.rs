//! A counting-only memory-model wrapper for the traced run.
//!
//! [`Counting`] forwards every `MemModel` call to the wrapped model
//! unchanged and adds one to a call counter. It times nothing: a PAL
//! encode makes tens of millions of ~30 ns calls, and a clock read per
//! call would cost more than the call it measures. Wall time is taken
//! at span boundaries instead (see `traced.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use m4ps_memsim::{AccessKind, Counters, MemModel, ParallelModel};

/// Where wrappers that the benchmark does not own at the end (service
/// sessions drop their models) leave their tallies.
#[derive(Debug, Default)]
pub struct Tally {
    pub calls: AtomicU64,
    pub forks: AtomicU64,
}

/// `MemModel` calls and absorbed forks, forwarded to `inner`.
#[derive(Debug)]
pub struct Counting<M> {
    pub inner: M,
    pub tally: Local,
}

/// One wrapper's own counts.
#[derive(Debug, Default)]
pub struct Local {
    pub calls: u64,
    /// Forks absorbed back into this model (each fork is counted once,
    /// when its tallies come home).
    pub forks: u64,
    /// Flushed into on drop; `None` for forks, whose counts go to the
    /// parent through `absorb`.
    sink: Option<Arc<Tally>>,
}

impl Drop for Local {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            sink.calls.fetch_add(self.calls, Ordering::Relaxed);
            sink.forks.fetch_add(self.forks, Ordering::Relaxed);
        }
    }
}

impl<M> Counting<M> {
    pub fn new(inner: M) -> Self {
        Counting {
            inner,
            tally: Local::default(),
        }
    }

    /// A wrapper that adds its counts to `sink` when dropped.
    pub fn with_sink(inner: M, sink: Arc<Tally>) -> Self {
        Counting {
            inner,
            tally: Local {
                sink: Some(sink),
                ..Local::default()
            },
        }
    }
}

// Every method is forwarded, defaulted ones included, so the wrapped
// model's own overrides run and its counters stay bit-identical.
impl<M: MemModel> MemModel for Counting<M> {
    fn access_range(&mut self, addr: u64, len: u64, kind: AccessKind, arch_ops: u64) {
        self.tally.calls += 1;
        self.inner.access_range(addr, len, kind, arch_ops);
    }

    fn access(&mut self, addr: u64, kind: AccessKind) {
        self.tally.calls += 1;
        self.inner.access(addr, kind);
    }

    fn access_rect(
        &mut self,
        addr: u64,
        stride: u64,
        rows: u64,
        row_bytes: u64,
        kind: AccessKind,
        ops_per_row: u64,
    ) {
        self.tally.calls += 1;
        self.inner
            .access_rect(addr, stride, rows, row_bytes, kind, ops_per_row);
    }

    fn prefetch(&mut self, addr: u64) {
        self.tally.calls += 1;
        self.inner.prefetch(addr);
    }

    fn prefetch_pair(&mut self, addr: u64) {
        self.tally.calls += 1;
        self.inner.prefetch_pair(addr);
    }

    fn add_ops(&mut self, ops: u64) {
        self.tally.calls += 1;
        self.inner.add_ops(ops);
    }

    fn counters(&self) -> &Counters {
        self.inner.counters()
    }
}

impl<M: ParallelModel> ParallelModel for Counting<M> {
    fn fork(&self) -> Self {
        Counting::new(self.inner.fork())
    }

    fn absorb(&mut self, child: Self) {
        let Counting { inner, tally } = child;
        self.tally.calls += tally.calls;
        self.tally.forks += 1 + tally.forks;
        self.inner.absorb(inner);
    }
}
