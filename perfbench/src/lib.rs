//! `realm-perfbench`: the repository benchmark.
//!
//! One command runs a serving workload through the public APIs only
//! (`ServeEngine::submit`/`step`, `NetServer` with `realm_net::stream_generate`, and
//! `Model::generate` for the clean references), checks its outputs and prints every
//! end-to-end metric. A traced run repeats the same inputs with outside-in wrappers
//! around the layers ([`layers`]) and prints the per-layer ledger instead. See
//! `README.md` next to this crate for the metrics and how to read them.

mod host;
mod inputs;
pub mod layers;
pub mod stats;
pub mod workloads;
