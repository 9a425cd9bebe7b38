//! Criterion benchmark for the parallel pool on its worst case: a
//! **wide, flat** call graph — thousands of independent leaf functions,
//! each a trivial get/put pair. Per-task work is tiny, so the
//! measurement is dominated by dispatch overhead (seeding, one pool lock
//! per component, condvar wake-ups, count decrements), which is exactly
//! what this bench pins down: the 1-thread scan vs the 8-thread pool on
//! the same graph.

use std::fmt::Write as _;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rid_core::apis::linux_dpm_apis;
use rid_core::{analyze_program, AnalysisOptions};
use rid_ir::Program;

/// `leaves` independent functions plus one root per 100 leaves (the
/// roots keep the dependency counters honest without adding depth).
fn wide_flat_program(leaves: usize) -> Program {
    let mut src = String::from(
        "module sched;\nextern fn pm_runtime_get_sync;\nextern fn pm_runtime_put;\n\n",
    );
    for i in 0..leaves {
        let _ = write!(
            src,
            "fn leaf{i}(dev) {{\n    pm_runtime_get_sync(dev);\n    \
             pm_runtime_put(dev);\n    return 0;\n}}\n\n"
        );
    }
    for (r, chunk) in (0..leaves).collect::<Vec<_>>().chunks(100).enumerate() {
        let _ = writeln!(src, "fn root{r}(dev) {{");
        for i in chunk {
            let _ = writeln!(src, "    leaf{i}(dev);");
        }
        src.push_str("    return 0;\n}\n\n");
    }
    rid_frontend::parse_program([src.as_str()]).expect("synthetic corpus parses")
}

fn bench_scheduler(c: &mut Criterion) {
    let program = wide_flat_program(10_000);
    let apis = linux_dpm_apis();

    let mut group = c.benchmark_group("scheduler");
    group.sample_size(10);

    for threads in [1usize, 8] {
        let options = AnalysisOptions { threads, ..Default::default() };
        group.bench_function(&format!("wide_flat_10k_{threads}t"), |b| {
            b.iter(|| analyze_program(black_box(&program), &apis, &options))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
