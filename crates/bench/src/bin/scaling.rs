//! `scaling` — the CI gate that parallelism does not cost: 2 workers
//! must not be slower than 1 beyond the noise floor.
//!
//! Measures the parallel pool at 1 and 2 workers on the seeded
//! kernel corpus and **fails (exit 1)** if the 2-worker run is slower
//! than the 1-worker run beyond the measured noise floor — but only on
//! hosts that actually have 2+ CPUs. On a single-core runner the
//! comparison proves nothing, so the binary prints the numbers, says so,
//! and exits 0 (the same honesty rule as `scaling_asserted` in the
//! `BENCH_perf.json` sweeps).
//!
//! The noise floor is measured, not guessed: the 1-worker configuration
//! runs `--iters` times and the relative spread `(max - min) / min` of
//! those samples is the floor (plus a fixed 5% margin for scheduler
//! overhead on tiny corpora). A 2-worker minimum within
//! `1-worker minimum × (1 + floor + margin)` passes.
//!
//! A determinism spot-check rides along: every 2-worker run must
//! reproduce the 1-worker reports exactly, on every host shape.
//!
//! ```text
//! cargo run -p rid-bench --release --bin scaling -- \
//!     [--seed N] [--scale F] [--iters N]
//! ```

use rid_core::{AnalysisOptions, AnalysisResult};
use rid_corpus::kernel::{generate_kernel, KernelConfig};

#[path = "../args.rs"]
mod args;

fn analyze(program: &rid_ir::Program, threads: usize) -> AnalysisResult {
    let options = AnalysisOptions { threads, ..Default::default() };
    rid_core::analyze_program(program, &rid_core::apis::linux_dpm_apis(), &options)
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn main() {
    let seed: u64 = args::flag("seed").unwrap_or(2016);
    let scale: f64 = args::flag("scale").unwrap_or(0.5);
    let iters: usize = args::flag("iters").unwrap_or(5);
    let host_cpus =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);

    let config = KernelConfig::evaluation(seed).scaled(scale);
    eprintln!("scale {scale}: generating...");
    let corpus = generate_kernel(&config);
    let program = rid_frontend::parse_program(corpus.sources.iter().map(String::as_str))
        .expect("corpus must parse");

    // Interleave 1- and 2-worker samples so slow drift (thermal, noisy
    // neighbors) lands on both sides of the comparison equally. Every
    // pair doubles as the determinism spot-check: 2 workers must
    // reproduce the 1-worker reports exactly, whatever the host shape.
    let mut one = Vec::new();
    let mut two = Vec::new();
    for _ in 0..iters.max(2) {
        let sequential = analyze(&program, 1);
        let parallel = analyze(&program, 2);
        assert!(
            sequential.reports == parallel.reports,
            "2-worker reports diverged from 1 worker"
        );
        one.push(sequential.stats.analyze_time.as_secs_f64());
        two.push(parallel.stats.analyze_time.as_secs_f64());
    }
    let one_min = min(&one);
    let one_max = one.iter().copied().fold(0.0f64, f64::max);
    let two_min = min(&two);
    let noise = (one_max - one_min) / one_min.max(1e-9);
    let margin = 0.05;
    let bound = one_min * (1.0 + noise + margin);

    println!(
        "scaling: 1 worker min {one_min:.3}s (noise floor {:.1}%), 2 workers min {two_min:.3}s \
         ({:.2}x), {host_cpus} host cpu(s)",
        noise * 100.0,
        one_min / two_min.max(1e-9),
    );

    println!("determinism: 2-worker reports identical to 1 worker");

    if host_cpus < 2 {
        println!(
            "host has {host_cpus} cpu(s): 2-worker comparison not asserted (nothing to prove \
             on a single core)"
        );
        return;
    }
    if two_min > bound {
        eprintln!(
            "FAIL: 2 workers ({two_min:.3}s) slower than 1 worker ({one_min:.3}s) beyond the \
             noise floor (bound {bound:.3}s = min x (1 + {:.1}% noise + {:.0}% margin))",
            noise * 100.0,
            margin * 100.0,
        );
        std::process::exit(1);
    }
    println!("PASS: 2 workers within bound {bound:.3}s");
}
