//! Outside-in tracing: wrappers around the program's own layer seams.
//!
//! Nothing here changes what the program computes. [`TimedEngine`] decorates the model's
//! `Arc<dyn GemmEngine>` and forwards every method to the wrapped backend; [`TracedHook`]
//! is installed as the serving engine's fault hook and either only observes (clean
//! workloads) or wraps the `ErrorInjector` (fault campaign), forwarding every callback
//! unchanged. Both write into one shared [`Ledger`].

use realm_inject::{BitFlipModel, ErrorInjector};
use realm_llm::{Component, GemmContext, GemmHook, Stage};
use realm_tensor::{
    ChecksummedGemm, GemmEngine, MatI32, MatI8, PackedMatI8, Result as TensorResult, RowPartition,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Which `GemmEngine` entry point a call used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallKind {
    Plain,
    Checksummed,
    Packed,
    PackedChecksummed,
}

impl CallKind {
    fn checksummed(self) -> bool {
        matches!(self, CallKind::Checksummed | CallKind::PackedChecksummed)
    }

    fn packed(self) -> bool {
        matches!(self, CallKind::Packed | CallKind::PackedChecksummed)
    }
}

/// Everything the traced run counts, shared by the decorator and the hook.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// GEMM calls seen by the decorator.
    pub gemm_calls: u64,
    /// Nanoseconds spent inside the wrapped backend.
    pub gemm_ns: u64,
    /// Multiply-accumulates (`m·k·n`) over all calls.
    pub gemm_macs: u64,
    /// Bytes computed from operand and result shapes: INT8 `a` and `b`, INT32 output.
    pub gemm_bytes: u64,
    /// Calls through a checksummed entry point (fused or two-pass).
    pub checksummed_calls: u64,
    /// Calls through a packed-weight entry point.
    pub packed_calls: u64,
    /// GEMM nanoseconds the hook labelled `QkT` or `Sv`.
    pub attn_gemm_ns: u64,
    /// Hook callbacks that found no decorator call to label (e.g. a GEMM the decorator
    /// did not run); a non-zero value means the attention share is a lower bound.
    pub unlabelled_hook_calls: u64,
    /// Decorator nanoseconds of the most recent call, waiting for the hook's label.
    pending_ns: Option<u64>,
    /// Nanoseconds spent inside the wrapped `ErrorInjector`.
    pub inject_ns: u64,
    /// Errors the injector reports having injected.
    pub inject_errors: u64,
    /// GEMMs the injector reports having corrupted.
    pub inject_gemms_corrupted: u64,
    /// Batched forwards announced through `on_batch_begin`.
    pub forwards: u64,
    /// Rows of each announced forward.
    pub rows_per_forward: Vec<u64>,
    /// Rows of each decode forward (the first GEMM after the announcement says which).
    pub decode_rows: Vec<u64>,
    /// Rows of the last announced forward, until its first GEMM labels its stage.
    open_forward_rows: Option<u64>,
    /// Step spans seen from the hook's step clock: `on_step_begin` to the step's last
    /// traced event. Used where the benchmark cannot wrap `step` itself.
    pub hook_step_ns: Vec<u64>,
    step_open: Option<Instant>,
    last_event: Option<Instant>,
}

impl Ledger {
    /// A shared, empty ledger.
    pub fn shared() -> Arc<Mutex<Ledger>> {
        Arc::new(Mutex::new(Ledger::default()))
    }

    /// Closes the step span still open on the hook's step clock.
    pub fn close_step(&mut self) {
        if let (Some(open), Some(last)) = (self.step_open.take(), self.last_event) {
            self.hook_step_ns
                .push(nanos(last.saturating_duration_since(open)));
        }
    }
}

fn lock(ledger: &Mutex<Ledger>) -> MutexGuard<'_, Ledger> {
    ledger
        .lock()
        .expect("ledger lock is never held across a panic")
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Timing decorator around a GEMM backend: forwards every method, times it, and counts
/// work from shapes.
#[derive(Debug)]
pub struct TimedEngine {
    inner: Arc<dyn GemmEngine>,
    ledger: Arc<Mutex<Ledger>>,
}

impl TimedEngine {
    /// Wraps `inner`, recording into `ledger`.
    pub fn new(inner: Arc<dyn GemmEngine>, ledger: Arc<Mutex<Ledger>>) -> Self {
        Self { inner, ledger }
    }

    fn timed<T>(
        &self,
        kind: CallKind,
        (m, k, n): (usize, usize, usize),
        call: impl FnOnce() -> T,
    ) -> T {
        let started = Instant::now();
        let out = call();
        let ended = Instant::now();
        let ns = nanos(ended - started);
        let (m, k, n) = (m as u64, k as u64, n as u64);
        let mut ledger = lock(&self.ledger);
        ledger.gemm_calls += 1;
        ledger.gemm_ns += ns;
        ledger.gemm_macs += m * k * n;
        ledger.gemm_bytes += m * k + k * n + 4 * m * n;
        ledger.checksummed_calls += u64::from(kind.checksummed());
        ledger.packed_calls += u64::from(kind.packed());
        ledger.pending_ns = Some(ns);
        ledger.last_event = Some(ended);
        out
    }
}

/// `(m, k, n)` of `a · b` where `b` has `n` columns.
fn dims(a: &MatI8, n: usize) -> (usize, usize, usize) {
    (a.rows(), a.cols(), n)
}

impl GemmEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn gemm_i8(&self, a: &MatI8, b: &MatI8) -> TensorResult<MatI32> {
        let d = dims(a, b.cols());
        self.timed(CallKind::Plain, d, || self.inner.gemm_i8(a, b))
    }

    fn gemm_i8_into(&self, a: &MatI8, b: &MatI8, out: &mut MatI32) -> TensorResult<()> {
        let d = dims(a, b.cols());
        self.timed(CallKind::Plain, d, || self.inner.gemm_i8_into(a, b, out))
    }

    fn gemm_i8_checksummed_into(
        &self,
        a: &MatI8,
        b: &MatI8,
        dest: &mut ChecksummedGemm,
        etw_scratch: &mut Vec<i64>,
    ) -> TensorResult<()> {
        let d = dims(a, b.cols());
        self.timed(CallKind::Checksummed, d, || {
            self.inner.gemm_i8_checksummed_into(a, b, dest, etw_scratch)
        })
    }

    fn gemm_i8_checksummed(&self, a: &MatI8, b: &MatI8) -> TensorResult<ChecksummedGemm> {
        let d = dims(a, b.cols());
        self.timed(CallKind::Checksummed, d, || {
            self.inner.gemm_i8_checksummed(a, b)
        })
    }

    fn gemm_i8_checksummed_two_pass(&self, a: &MatI8, b: &MatI8) -> TensorResult<ChecksummedGemm> {
        let d = dims(a, b.cols());
        self.timed(CallKind::Checksummed, d, || {
            self.inner.gemm_i8_checksummed_two_pass(a, b)
        })
    }

    fn gemm_i8_packed_into(
        &self,
        a: &MatI8,
        pb: &PackedMatI8,
        out: &mut MatI32,
    ) -> TensorResult<()> {
        let d = dims(a, pb.cols());
        self.timed(CallKind::Packed, d, || {
            self.inner.gemm_i8_packed_into(a, pb, out)
        })
    }

    fn gemm_i8_packed_checksummed_into(
        &self,
        a: &MatI8,
        pb: &PackedMatI8,
        dest: &mut ChecksummedGemm,
        etw_scratch: &mut Vec<i64>,
    ) -> TensorResult<()> {
        let d = dims(a, pb.cols());
        self.timed(CallKind::PackedChecksummed, d, || {
            self.inner
                .gemm_i8_packed_checksummed_into(a, pb, dest, etw_scratch)
        })
    }
}

/// The serving engine's fault hook in a traced run.
///
/// Without an injector it is a pure observer: it never asks for checksums and never
/// takes `acc_mut`, so the protector's fused checksums stay fresh. With an injector it
/// forwards every callback to it unchanged and times the injector's share.
#[derive(Debug)]
pub struct TracedHook {
    injector: Option<ErrorInjector<BitFlipModel>>,
    ledger: Arc<Mutex<Ledger>>,
}

impl TracedHook {
    /// A pure observer.
    pub fn observer(ledger: Arc<Mutex<Ledger>>) -> Self {
        Self {
            injector: None,
            ledger,
        }
    }

    /// Wraps `injector`.
    pub fn wrapping(injector: ErrorInjector<BitFlipModel>, ledger: Arc<Mutex<Ledger>>) -> Self {
        Self {
            injector: Some(injector),
            ledger,
        }
    }

    /// Labels the decorator's pending call with this GEMM's component and stage.
    fn label(&self, ctx: &GemmContext) {
        let mut ledger = lock(&self.ledger);
        match ledger.pending_ns.take() {
            Some(ns) if matches!(ctx.component, Component::QkT | Component::Sv) => {
                ledger.attn_gemm_ns += ns;
            }
            Some(_) => {}
            None => ledger.unlabelled_hook_calls += 1,
        }
        if let Some(rows) = ledger.open_forward_rows.take() {
            if ctx.stage == Stage::Decode {
                ledger.decode_rows.push(rows);
            }
        }
    }

    /// Runs `call` on the injector (if any), timing it and copying its counters.
    fn inject(&mut self, call: impl FnOnce(&mut ErrorInjector<BitFlipModel>)) {
        let Some(injector) = self.injector.as_mut() else {
            return;
        };
        let started = Instant::now();
        call(injector);
        let ended = Instant::now();
        let stats = injector.stats();
        let mut ledger = lock(&self.ledger);
        ledger.inject_ns += nanos(ended - started);
        ledger.inject_errors = stats.errors_injected;
        ledger.inject_gemms_corrupted = stats.gemms_corrupted;
        ledger.last_event = Some(ended);
    }
}

impl GemmHook for TracedHook {
    fn on_gemm(&mut self, ctx: &GemmContext, w: &MatI8, x: &MatI8, acc: &mut MatI32) {
        self.label(ctx);
        self.inject(|inj| inj.on_gemm(ctx, w, x, acc));
    }

    fn on_gemm_checksummed(
        &mut self,
        ctx: &GemmContext,
        w: &MatI8,
        x: &MatI8,
        result: &mut ChecksummedGemm,
    ) {
        self.label(ctx);
        self.inject(|inj| inj.on_gemm_checksummed(ctx, w, x, result));
    }

    fn wants_checksums(&self) -> bool {
        self.injector
            .as_ref()
            .is_some_and(|inj| inj.wants_checksums())
    }

    fn on_batch_begin(&mut self, partition: &RowPartition) {
        {
            let mut ledger = lock(&self.ledger);
            let rows = partition.total_rows() as u64;
            ledger.forwards += 1;
            ledger.rows_per_forward.push(rows);
            ledger.open_forward_rows = Some(rows);
        }
        if let Some(injector) = self.injector.as_mut() {
            injector.on_batch_begin(partition);
        }
    }

    fn on_step_begin(&mut self, step: u64) {
        {
            let mut ledger = lock(&self.ledger);
            ledger.close_step();
            let now = Instant::now();
            ledger.step_open = Some(now);
            ledger.last_event = Some(now);
        }
        if let Some(injector) = self.injector.as_mut() {
            injector.on_step_begin(step);
        }
    }
}
