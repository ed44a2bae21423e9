//! Proof that the workspace-planned decode hot loop is allocation-free after warmup.
//!
//! A counting global allocator wraps the system allocator; after a prefill plus enough
//! decode steps to warm every workspace pool past the window's power-of-two capacity
//! ceilings, a measured window of further decode steps must perform **zero** heap
//! allocations — unprotected and under an always-on statistical-ABFT protector alike (the
//! fault-free detection path reuses the protector's scratch buffers).
//!
//! The test pins two backends: `Reference` (its `_into` kernels are the oracle every other
//! backend is differentially tested against) and `Simd` (the microkernel keeps its tile in
//! stack registers and must not allocate packing scratch per call). Neither spawns worker
//! threads whose stacks would muddy the count. Under `REALM_FORCE_SCALAR=1` the Simd tests
//! prove the same contract for the portable fallback kernel.
//!
//! Since the decode-shape speed tier landed, `QuantLinear` pre-packs every weight matrix
//! into a [`realm::tensor::PackedMatI8`] replica at **model load**. That packing is a
//! one-time construction cost outside the measured window; the decode-path packed kernels
//! consume the resident tiles read-only, so the steady-state zero-allocation contract below
//! now covers the packed path by default (and the unpacked path via
//! `Model::set_weight_packing(false)`).
//!
//! The same contract holds under fault injection: an armed `ErrorInjector` chained before
//! the statistical protector samples its faults without touching the heap, and the
//! protector's detection and in-place recovery of those faults reuse its scratch.
//!
//! The counter is process-global and the harness runs tests on parallel threads, so every
//! test holds [`serial`]'s lock for its whole body: a measured window counts only its own
//! test's allocations — including those on the TP rank threads it drives, which a
//! thread-local counter would miss.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use realm::core::SchemeProtector;
use realm::inject::{BitFlipModel, ErrorInjector, MagFreqModel, VoltageBerCurve};
use realm::llm::hooks::HookChain;
use realm::llm::model::argmax_with_margin;
use realm::llm::{config::ModelConfig, model::Model, GemmHook, NoopHook};
use realm::systolic::{Dataflow, ProtectionScheme, SystolicArray};
use realm::tensor::{EngineKind, Workspace};

/// Counts every allocation and reallocation routed through the global allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialises the tests of this binary. A test that panicked while holding the lock has
/// already reported its failure, so a poisoned lock is simply taken over. The harness
/// records that failure while the next test runs, so read the first failure of a run: a
/// later short-window test can also count the harness's allocations.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A model on the given backend with a context window large enough that the measured
/// decode window never crosses a workspace capacity ceiling mid-measurement.
fn model_on(engine: EngineKind) -> Model {
    let mut config = ModelConfig::tiny_opt();
    config.engine = engine;
    config.max_seq_len = 256;
    Model::new(&config, 42).unwrap()
}

fn reference_model() -> Model {
    model_on(EngineKind::Reference)
}

/// An always-on statistical-ABFT protector.
fn statistical_protector() -> SchemeProtector {
    SchemeProtector::with_default_regions(
        ProtectionScheme::StatisticalAbft,
        SystolicArray::small(Dataflow::WeightStationary),
    )
}

/// Runs `steps` greedy decode steps through one long-lived workspace and returns the
/// number of heap allocations the steps performed.
fn count_decode_allocations(
    model: &Model,
    hook: &mut dyn GemmHook,
    warmup: usize,
    steps: usize,
) -> u64 {
    let mut ws = Workspace::new();
    let (logits, mut cache) = model.prefill_ws(&[1, 2, 3, 4], hook, &mut ws).unwrap();
    let (mut next, _) = argmax_with_margin(logits.row(logits.rows() - 1));
    ws.recycle_mat_f32(logits);
    let mut decode = |next: &mut u32, cache: &mut _, ws: &mut Workspace| {
        let step_logits = model.decode_step_ws(*next, cache, hook, ws).unwrap();
        let (n, _) = argmax_with_margin(&step_logits);
        ws.recycle_vec_f32(step_logits);
        ws.reset();
        *next = n;
    };
    // Warmup: grows every pool to (power-of-two rounded) steady-state capacity. The
    // window below stays under the next ceiling, so any allocation inside it is a bug.
    for _ in 0..warmup {
        decode(&mut next, &mut cache, &mut ws);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..steps {
        decode(&mut next, &mut cache, &mut ws);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn decode_steps_after_warmup_allocate_nothing() {
    let _serial = serial();
    let model = reference_model();
    let sanity = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(sanity > 0, "the counting allocator is installed");
    // Warmup to KV length 4 + 64 = 68: every length-dependent scratch buffer has crossed
    // the 64-element ceiling and sits at a power-of-two capacity ≥ its demand through the
    // whole 40-step window (length ≤ 108 < 128).
    let allocations = count_decode_allocations(&model, &mut NoopHook, 64, 40);
    assert_eq!(
        allocations, 0,
        "steady-state decode must perform zero heap allocations per step"
    );
}

#[test]
fn simd_decode_steps_after_warmup_allocate_nothing() {
    let _serial = serial();
    // The SIMD backend's `_into` kernels keep their register tile on the stack; the packed
    // weight replicas they stream were allocated once at `Model::new` and are read-only
    // here, so the allocation-free contract extends to the packed decode path verbatim —
    // on every dispatch tier (AVX-512 or AVX2 here; the portable fallback under the CI leg
    // that sets REALM_FORCE_SCALAR=1).
    let model = model_on(EngineKind::Simd);
    let allocations = count_decode_allocations(&model, &mut NoopHook, 64, 40);
    assert_eq!(
        allocations, 0,
        "steady-state SIMD decode must perform zero heap allocations per step"
    );
}

#[test]
fn simd_unpacked_decode_steps_after_warmup_allocate_nothing() {
    let _serial = serial();
    // `set_weight_packing(false)` reroutes every weight GEMM through the legacy unpacked
    // kernels without repacking or dropping buffers, so the A/B switch the packed-vs-
    // unpacked benchmarks rely on preserves the zero-allocation contract on both sides.
    let mut model = model_on(EngineKind::Simd);
    model.set_weight_packing(false);
    let allocations = count_decode_allocations(&model, &mut NoopHook, 64, 40);
    assert_eq!(
        allocations, 0,
        "steady-state unpacked SIMD decode must perform zero heap allocations per step"
    );
}

#[test]
fn packed_checksummed_gemv_reuses_buffers_without_allocating() {
    let _serial = serial();
    // Engine-level statement of the same contract: once the packed replica exists and the
    // destination/scratch buffers have been sized by a first call, repeated checksummed
    // packed GEMVs (the per-layer decode workload) perform zero heap allocations.
    use realm::tensor::engine::{ChecksummedGemm, GemmEngine, ReferenceEngine};
    use realm::tensor::{rng, MatI32, MatI8, PackedMatI8, SimdEngine};

    let mut r = rng::seeded(7);
    use rand::Rng;
    let w = MatI8::from_fn(96, 80, |_, _| r.gen_range(-128i16..=127) as i8);
    let pb = PackedMatI8::from_mat(w);
    let a = MatI8::from_fn(1, 96, |_, _| r.gen_range(-128i16..=127) as i8);
    let engine = SimdEngine::new();

    let mut dest = ChecksummedGemm::from_parts(MatI32::zeros(0, 0), Vec::new(), Vec::new());
    let mut etw = Vec::new();
    // Warmup sizes the accumulator and the three checksum buffers.
    engine
        .gemm_i8_packed_checksummed_into(&a, &pb, &mut dest, &mut etw)
        .unwrap();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..32 {
        engine
            .gemm_i8_packed_checksummed_into(&a, &pb, &mut dest, &mut etw)
            .unwrap();
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocations, 0,
        "repeated packed checksummed GEMVs must reuse the caller's buffers"
    );

    // The loop above really did compute the decode GEMM: cross-check the last result.
    let oracle = ReferenceEngine
        .gemm_i8_checksummed_two_pass(&a, pb.unpacked())
        .unwrap();
    assert_eq!(dest.acc(), oracle.acc());
    assert_eq!(dest.expected(), oracle.expected());
    assert_eq!(dest.observed(), oracle.observed());
}

#[test]
fn simd_protected_decode_steps_after_warmup_allocate_nothing() {
    let _serial = serial();
    let model = model_on(EngineKind::Simd);
    let mut protector = statistical_protector();
    let allocations = count_decode_allocations(&model, &mut protector, 64, 40);
    assert_eq!(
        allocations, 0,
        "fault-free protected SIMD decode must perform zero heap allocations per step"
    );
}

#[test]
fn protected_decode_steps_after_warmup_allocate_nothing() {
    let _serial = serial();
    // Always-on detection must stay cheap enough to leave on: the fault-free statistical
    // ABFT inspection path (fused checksums + protector-owned scratch) is also
    // allocation-free after warmup.
    let model = reference_model();
    let mut protector = statistical_protector();
    let allocations = count_decode_allocations(&model, &mut protector, 64, 40);
    assert_eq!(
        allocations, 0,
        "fault-free protected decode must perform zero heap allocations per step"
    );
}

/// A tensor-parallel model on `engine`: every weight GEMM is scattered across `degree`
/// persistent rank threads and the stripes merged back on the caller's thread.
fn sharded_model_on(engine: EngineKind, degree: usize) -> Model {
    let mut config = ModelConfig::tiny_opt();
    config.engine = engine;
    config.max_seq_len = 256;
    config.tp_degree = degree;
    Model::new(&config, 42).unwrap()
}

#[test]
fn sharded_decode_steps_after_warmup_allocate_nothing() {
    let _serial = serial();
    // The counting allocator is global, so it also sees the rank threads: the zero budget
    // covers the whole TP machinery — mailbox dispatch, each rank's resident accumulator
    // and checksum segments, and the caller-side stripe merge. Everything was sized during
    // warmup; the steady-state sharded decode loop must not touch the heap anywhere.
    let model = sharded_model_on(EngineKind::Simd, 2);
    let allocations = count_decode_allocations(&model, &mut NoopHook, 64, 40);
    assert_eq!(
        allocations, 0,
        "steady-state sharded decode must perform zero heap allocations per step"
    );
}

#[test]
fn sharded_protected_decode_steps_after_warmup_allocate_nothing() {
    let _serial = serial();
    // The checksummed sharded path adds the per-shard expected/observed segment merge and
    // the protector's fused inspection on top — still zero allocations after warmup, with
    // a ragged shard count (3 does not divide tiny-opt's projection widths).
    let model = sharded_model_on(EngineKind::Simd, 3);
    let mut protector = statistical_protector();
    let allocations = count_decode_allocations(&model, &mut protector, 64, 40);
    assert_eq!(
        allocations, 0,
        "fault-free protected sharded decode must perform zero heap allocations per step"
    );
}

#[test]
fn injected_bitflip_decode_steps_after_warmup_allocate_nothing() {
    // Uniform bit flips at the 0.70 V operating point, sampled by geometric skips: an armed
    // injector in front of the protector keeps decode allocation-free, whether or not a
    // fault lands in the measured window.
    let _serial = serial();
    let model = model_on(EngineKind::Simd);
    let ber = VoltageBerCurve::default_14nm().ber_at(0.70);
    let mut injector = ErrorInjector::everywhere(BitFlipModel::uniform(ber), 5);
    let mut protector = statistical_protector();
    let mut chain = HookChain::new().with(&mut injector).with(&mut protector);
    let allocations = count_decode_allocations(&model, &mut chain, 64, 40);
    drop(chain);
    assert!(
        injector.stats().gemms_targeted > 0,
        "the injector was armed"
    );
    assert_eq!(
        allocations, 0,
        "decode under a bit-flip injector must perform zero heap allocations per step"
    );
}

#[test]
fn injected_magfreq_decode_steps_after_warmup_allocate_nothing() {
    // One 2^30 error in every GEMM: every step exercises the injector's position sampling
    // and the protector's detection, attribution and in-place recovery.
    let _serial = serial();
    let model = model_on(EngineKind::Simd);
    let mut injector = ErrorInjector::everywhere(MagFreqModel::new(1 << 30, 1), 5);
    let mut protector = statistical_protector();
    let mut chain = HookChain::new().with(&mut injector).with(&mut protector);
    let allocations = count_decode_allocations(&model, &mut chain, 64, 40);
    drop(chain);
    assert_eq!(
        injector.stats().gemms_corrupted,
        injector.stats().gemms_targeted
    );
    assert!(
        protector.stats().recoveries_triggered > 0,
        "faults were repaired"
    );
    assert_eq!(
        allocations, 0,
        "decode under a magnitude/frequency injector must perform zero heap allocations per step"
    );
}
