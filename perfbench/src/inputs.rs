//! Seeded workload inputs.
//!
//! Arrival times come from `realm_net::generate_trace` (bounded-Pareto gaps). The
//! request bodies are stratified: prompt lengths, output budgets, priorities and policies
//! are spread evenly over their ranges and weights inside every block of [`BLOCK`]
//! requests, and the seed only picks their order and the prompt tokens. Every run, and
//! every prefix a closed loop manages to send, therefore carries the same mix. Run-to-run
//! differences come from arrival bursts, order and token content, not from one seed
//! drawing more long prompts than another.

use crate::workloads::Workload;
use rand::Rng;
use realm_core::protection::ProtectionPolicy;
use realm_net::{generate_trace, GenBody, TraceConfig, TraceRequest};
use realm_tensor::rng::{derive_seed, seeded, SeededRng};

/// Requests per stratification block.
const BLOCK: usize = 40;
/// Pareto tail index of the open-loop interarrival gaps: bursty, with finite variance.
const PARETO_SHAPE: f64 = 3.0;
/// Open-loop arrival rate of `chat`, requests per second.
const CHAT_RATE: f64 = 12.0;
/// Open-loop arrival rate of `long_context`, requests per second.
const LONG_RATE: f64 = 5.0;
/// Every `LONG_EVERY`-th `long_context` request carries a long prompt.
const LONG_EVERY: usize = 5;
/// Offline-batch size of `fault_campaign` per second of `--seconds`.
const FAULT_REQUESTS_PER_S: f64 = 12.0;
/// Requests generated for `http_stream` per second of `--seconds`: more than two
/// closed-loop clients can send, so the clients stop on the clock, not on the input.
const HTTP_REQUESTS_PER_S: f64 = 1000.0;
/// Scheduling priorities and their weights (the `generate_trace` default mix).
const PRIORITIES: [(u8, u32); 3] = [(0, 6), (3, 3), (7, 1)];
/// Seed stream of the request bodies.
const BODY_STREAM: u64 = 0x626f_6479;

/// Prompt and output ranges of a workload's requests.
struct Shape {
    prompt: (usize, usize),
    /// The range of every `LONG_EVERY`-th prompt, when the workload has long prompts.
    long_prompt: Option<(usize, usize)>,
    output: (usize, usize),
    policies: Vec<(ProtectionPolicy, u32)>,
}

fn shape(workload: Workload) -> Shape {
    let mix = vec![
        (ProtectionPolicy::statistical(), 6),
        (ProtectionPolicy::classical(), 2),
        (ProtectionPolicy::unprotected(), 2),
    ];
    match workload {
        Workload::Chat => Shape {
            prompt: (4, 32),
            long_prompt: None,
            output: (16, 48),
            policies: mix,
        },
        Workload::LongContext => Shape {
            prompt: (4, 32),
            long_prompt: Some((96, 256)),
            output: (16, 48),
            policies: mix,
        },
        // Short requests: token_match_rate moves in whole requests, so its spread across
        // seeds shrinks with the number of requests a run holds.
        Workload::FaultCampaign => Shape {
            prompt: (4, 16),
            long_prompt: None,
            output: (8, 24),
            policies: vec![
                (ProtectionPolicy::statistical(), 3),
                (ProtectionPolicy::classical(), 1),
            ],
        },
        Workload::HttpStream => Shape {
            prompt: (4, 32),
            long_prompt: None,
            output: (32, 96),
            policies: mix,
        },
    }
}

/// The seeded requests of a run.
///
/// - Open loop (`chat`, `long_context`): `rate × seconds` requests whose gaps are
///   stretched so the last is due at the end of the window; every seed offers exactly
///   the nominal rate.
/// - Offline batch (`fault_campaign`): all due at t = 0, sized from the window.
/// - Closed loop (`http_stream`): more requests than the clients can send; arrival
///   times are unused.
pub fn inputs(workload: Workload, seed: u64, seconds: f64, vocab: usize) -> Vec<TraceRequest> {
    let (rate, n) = match workload {
        Workload::Chat => (CHAT_RATE, CHAT_RATE * seconds),
        Workload::LongContext => (LONG_RATE, LONG_RATE * seconds),
        Workload::FaultCampaign => (FAULT_REQUESTS_PER_S, FAULT_REQUESTS_PER_S * seconds),
        Workload::HttpStream => (HTTP_REQUESTS_PER_S, HTTP_REQUESTS_PER_S * seconds),
    };
    let n = (n.round() as usize).max(1);
    let mut trace = generate_trace(&TraceConfig {
        seed,
        requests: n,
        mean_interarrival_us: 1e6 / rate,
        pareto_shape: PARETO_SHAPE,
        ..TraceConfig::default()
    });
    match workload {
        Workload::Chat | Workload::LongContext => {
            let last = trace.last().map_or(1, |r| r.arrival_us.max(1)) as f64;
            for r in &mut trace {
                r.arrival_us = (r.arrival_us as f64 * seconds * 1e6 / last) as u64;
            }
        }
        Workload::FaultCampaign | Workload::HttpStream => {
            for r in &mut trace {
                r.arrival_us = 0;
            }
        }
    }

    let shape = shape(workload);
    let mut rng = seeded(derive_seed(seed, BODY_STREAM));
    let is_long = |i: usize| shape.long_prompt.is_some() && (i + 1).is_multiple_of(LONG_EVERY);
    let long_count = (0..n).filter(|&i| is_long(i)).count();
    let mut short = spread(&mut rng, n - long_count, shape.prompt).into_iter();
    let mut long = spread(
        &mut rng,
        long_count,
        shape.long_prompt.unwrap_or(shape.prompt),
    )
    .into_iter();
    let prompt_lens: Vec<usize> = (0..n)
        .map(|i| {
            if is_long(i) {
                long.next()
            } else {
                short.next()
            }
        })
        .map(|len| len.expect("one length per request"))
        .collect();
    let outputs = spread(&mut rng, n, shape.output);
    let priorities = weighted(&mut rng, n, &PRIORITIES);
    let policies = weighted(&mut rng, n, &shape.policies);
    for (i, r) in trace.iter_mut().enumerate() {
        r.body = GenBody {
            prompt: (0..prompt_lens[i])
                .map(|_| rng.gen_range(0..vocab as u32))
                .collect(),
            max_new_tokens: outputs[i],
            priority: priorities[i],
            policy: policies[i],
        };
    }
    trace
}

fn shuffle<T>(rng: &mut SeededRng, values: &mut [T]) {
    for i in (1..values.len()).rev() {
        values.swap(i, rng.gen_range(0..=i));
    }
}

/// `n` values spread evenly over `lo..=hi` inside every block, each block shuffled.
fn spread(rng: &mut SeededRng, n: usize, (lo, hi): (usize, usize)) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let len = BLOCK.min(n - out.len());
        let width = hi - lo + 1;
        let mut block: Vec<usize> = (0..len)
            .map(|i| lo + (2 * i + 1) * width / (2 * len))
            .collect();
        shuffle(rng, &mut block);
        out.extend(block);
    }
    out
}

/// `n` picks that hold each value in proportion to its weight inside every block of
/// one full weight cycle, each block shuffled.
fn weighted<T: Copy>(rng: &mut SeededRng, n: usize, choices: &[(T, u32)]) -> Vec<T> {
    let cycle: Vec<T> = choices
        .iter()
        .flat_map(|&(v, w)| std::iter::repeat_n(v, w as usize))
        .collect();
    let mut out = Vec::with_capacity(n + cycle.len());
    while out.len() < n {
        let mut block = cycle.clone();
        shuffle(rng, &mut block);
        out.extend(block);
    }
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_hold_the_same_mix() {
        let a = inputs(Workload::LongContext, 3, 20.0, 512);
        assert_eq!(a, inputs(Workload::LongContext, 3, 20.0, 512));
        let b = inputs(Workload::LongContext, 4, 20.0, 512);
        assert_ne!(a, b);
        assert_eq!(a.len(), 100);
        let lens = |t: &[TraceRequest]| {
            let mut v: Vec<usize> = t.iter().map(|r| r.body.prompt.len()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(lens(&a), lens(&b));
        assert_eq!(a.iter().filter(|r| r.body.prompt.len() >= 96).count(), 20);
        assert!(a.last().unwrap().arrival_us <= 20_000_000);
    }

    #[test]
    fn spread_and_weighted_fill_their_ranges() {
        let mut rng = seeded(1);
        let mut v = spread(&mut rng, 40, (4, 32));
        v.sort_unstable();
        assert_eq!((v[0], v[39]), (4, 32));
        let w = weighted(&mut rng, 10, &[(1u8, 6), (2, 2), (3, 2)]);
        assert_eq!(w.iter().filter(|&&x| x == 1).count(), 6);
    }
}
