//! The host stamp every result carries, and the process's peak memory.

use crate::stats::json_str;
use realm_tensor::simd::FORCE_SCALAR_ENV;
use realm_tensor::SimdTier;

/// Where and on what a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostStamp {
    /// `model name` from `/proc/cpuinfo` (`unknown` elsewhere).
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The SIMD tier the GEMM kernels were granted.
    pub simd_tier: &'static str,
    /// `GemmEngine::name` of the served model's backend.
    pub gemm_engine: String,
    /// Value of `REALM_FORCE_SCALAR` (empty when unset).
    pub force_scalar: String,
    /// Commit of the checkout, read from `.git` (`unknown` outside a git checkout).
    pub git_rev: String,
}

impl HostStamp {
    /// Stamps the current host for a model served on `gemm_engine`.
    pub fn detect(gemm_engine: &str) -> Self {
        Self {
            cpu_model: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd_tier: SimdTier::detect().label(),
            gemm_engine: gemm_engine.to_string(),
            force_scalar: std::env::var(FORCE_SCALAR_ENV).unwrap_or_default(),
            git_rev: git_rev(),
        }
    }

    /// The stamp as JSON fields (no surrounding braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"cpu_model\": {}, \"nproc\": {}, \"simd_tier\": {}, \"gemm_engine\": {}, \
             \"force_scalar\": {}, \"git_rev\": {}",
            json_str(&self.cpu_model),
            self.nproc,
            json_str(self.simd_tier),
            json_str(&self.gemm_engine),
            json_str(&self.force_scalar),
            json_str(&self.git_rev),
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Resolves `.git/HEAD` in the working directory without running git.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0.0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
