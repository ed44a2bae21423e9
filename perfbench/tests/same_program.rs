//! The traced run measures the same program: with the timing decorator and the hook
//! wrapper installed, an offline batch produces bit-identical tokens, margins,
//! detections and recoveries, and the decorator sees the packed calls.

use realm_inject::{BitFlipModel, ErrorInjector};
use realm_llm::{GemmHook, Model, ModelConfig};
use realm_perfbench::layers::{Ledger, TimedEngine, TracedHook};
use realm_perfbench::workloads::serve_config;
use realm_serve::{ProtectionPolicy, ServeEngine, ServeRequest, TokenEvent};
use std::sync::Arc;

/// Per request: tokens, margin bits, detections, recoveries.
type Outcome = Vec<(Vec<u32>, Vec<u32>, u64, u64)>;

fn model() -> Model {
    Model::new(
        &ModelConfig {
            max_seq_len: 64,
            ..ModelConfig::tiny_opt()
        },
        7,
    )
    .unwrap()
}

fn requests() -> Vec<ServeRequest> {
    let policies = [
        ProtectionPolicy::statistical(),
        ProtectionPolicy::classical(),
        ProtectionPolicy::unprotected(),
    ];
    (0..9u32)
        .map(|i| {
            let prompt = (0..4 + (i as usize * 5) % 23)
                .map(|t| (t as u32 * 7 + i) % 64)
                .collect();
            ServeRequest::new(prompt, 6 + (i as usize % 4) * 3)
                .with_policy(policies[i as usize % 3])
        })
        .collect()
}

fn run(model: &Model, hook: Option<Box<dyn GemmHook + Send>>) -> Outcome {
    let mut engine = ServeEngine::new(model, serve_config());
    if let Some(hook) = hook {
        engine = engine.with_fault_hook(hook);
    }
    let receivers: Vec<_> = requests()
        .into_iter()
        .map(|r| engine.submit(r).unwrap().1)
        .collect();
    engine.run_until_idle().unwrap();
    receivers
        .into_iter()
        .map(|rx| match rx.try_iter().last() {
            Some(TokenEvent::Done(s)) => (
                s.tokens,
                s.margins.iter().map(|m| m.to_bits()).collect(),
                s.attribution.detections,
                s.attribution.recoveries,
            ),
            other => panic!("request did not complete: {other:?}"),
        })
        .collect()
}

fn traced_model(ledger: &Arc<std::sync::Mutex<Ledger>>) -> Model {
    let mut traced = model();
    let inner = traced.config().engine.build();
    traced.set_engine(Arc::new(TimedEngine::new(inner, Arc::clone(ledger))));
    traced
}

fn injector() -> ErrorInjector<BitFlipModel> {
    ErrorInjector::everywhere(BitFlipModel::uniform(2e-4), 11)
}

#[test]
fn observer_and_decorator_leave_clean_outputs_bit_identical() {
    let plain = run(&model(), None);
    let ledger = Ledger::shared();
    let traced = run(
        &traced_model(&ledger),
        Some(Box::new(TracedHook::observer(Arc::clone(&ledger)))),
    );
    assert_eq!(plain, traced);
    let ledger = ledger.lock().unwrap();
    assert!(ledger.gemm_calls > 0);
    assert!(ledger.packed_calls > 0, "decorator must see packed calls");
    assert!(ledger.checksummed_calls > 0);
    assert_eq!(ledger.unlabelled_hook_calls, 0);
    assert!(ledger.attn_gemm_ns > 0 && ledger.attn_gemm_ns < ledger.gemm_ns);
    assert!(ledger.forwards > 0 && !ledger.decode_rows.is_empty());
    assert_eq!(ledger.inject_ns, 0);
}

#[test]
fn wrapped_injector_injects_exactly_the_same_faults() {
    let plain = run(&model(), Some(Box::new(injector())));
    let detections: u64 = plain.iter().map(|r| r.2).sum();
    let recoveries: u64 = plain.iter().map(|r| r.3).sum();
    assert!(
        detections > 0 && recoveries > 0,
        "the input must exercise ABFT"
    );
    let ledger = Ledger::shared();
    let traced = run(
        &traced_model(&ledger),
        Some(Box::new(TracedHook::wrapping(
            injector(),
            Arc::clone(&ledger),
        ))),
    );
    assert_eq!(plain, traced);
    let ledger = ledger.lock().unwrap();
    assert!(ledger.inject_errors > 0 && ledger.inject_gemms_corrupted > 0);
    assert!(ledger.packed_calls > 0, "decorator must see packed calls");
    assert_eq!(ledger.unlabelled_hook_calls, 0);
}
