//! Synthetic Linux-like kernel generator (the §6.1–6.5 substrate).
//!
//! The generator emits RIL modules shaped like the kernel code the paper
//! analyzes: per-subsystem DPM wrapper layers, drivers whose entry points
//! use the runtime-PM API with realistic error handling, helper functions
//! that land in each §5.2 classification category, and a large mass of
//! refcount-irrelevant filler. Bugs and false-positive-inducing constructs
//! are *seeded* with known ground truth:
//!
//! | Seed                | Paper artifact | RID expectation            |
//! |---------------------|----------------|----------------------------|
//! | `MissingPutOnGetError` | Figure 8    | detected                   |
//! | `MissingPutOnOpError`  | Figure 9    | detected (via wrapper)     |
//! | `DoublePut`            | §3.1 char. 4 | detected                  |
//! | `IrqHandlerStyle`      | Figure 10   | **missed** (function ptr)  |
//! | `LoopOnly`             | §5.4 item 2 | **missed** (unroll limit)  |
//! | bitmask false positive | §6.4        | reported, not a real bug   |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The kind of bug seeded into a generated function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SeededBug {
    /// Figure 8: early error return after `pm_runtime_get_sync` without
    /// the balancing put (the API increments even on failure).
    MissingPutOnGetError,
    /// Figure 9: a later operation fails and the error path skips the
    /// subsystem wrapper's put.
    MissingPutOnOpError,
    /// An extra put on an internally distinguished path: the PM count can
    /// go negative (characteristic 4).
    DoublePut,
    /// Figure 10: internally consistent (distinct return codes), the
    /// imbalance only shows at function-pointer callers RID cannot see.
    IrqHandlerStyle,
    /// §5.4 limitation 2: the imbalance appears only when a loop body runs
    /// two or more times; unrolling once hides it.
    LoopOnly,
}

impl SeededBug {
    /// Whether RID is expected to detect this bug class.
    #[must_use]
    pub fn rid_should_detect(self) -> bool {
        matches!(
            self,
            SeededBug::MissingPutOnGetError
                | SeededBug::MissingPutOnOpError
                | SeededBug::DoublePut
        )
    }
}

/// Ground-truth record for one seeded bug.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeededBugRecord {
    /// Function containing the bug.
    pub function: String,
    /// The bug class.
    pub kind: SeededBug,
}

/// Ground truth for one *direct* `pm_runtime_get*` call site with error
/// handling — the §6.3 census population.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GetCallSite {
    /// Function containing the call site.
    pub function: String,
    /// Whether the error path misses the balancing decrement (buggy).
    pub missing_decrement: bool,
    /// Whether the bug (if any) is within RID's power to detect.
    pub rid_detectable: bool,
}

/// Generator configuration. Integer weights select the variant of each
/// driver entry point; see the module docs for the classes.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelConfig {
    /// RNG seed (same seed ⇒ identical corpus).
    pub seed: u64,
    /// Number of subsystems (each contributes a wrapper module).
    pub subsystems: usize,
    /// Drivers per subsystem (each contributes one module).
    pub drivers_per_subsystem: usize,
    /// Refcount-irrelevant filler modules (category-3 mass).
    pub filler_modules: usize,
    /// Functions per filler module.
    pub filler_functions_per_module: usize,
    /// Weight: correct, balanced entry point.
    pub w_correct: u32,
    /// Weight: Figure 8 bug.
    pub w_fig8: u32,
    /// Weight: Figure 9 bug.
    pub w_fig9: u32,
    /// Weight: double put bug.
    pub w_double_put: u32,
    /// Weight: §6.4 bitmask false positive.
    pub w_false_positive: u32,
    /// Weight: Figure 10 (missed) bug.
    pub w_irq: u32,
    /// Weight: loop-only (missed) bug.
    pub w_loop: u32,
    /// Probability (percent) that a correct probe checks the get's error
    /// code (entering the §6.3 census as a non-buggy site).
    pub pct_probe_error_checked: u32,
    /// Adversarial modules appended to the corpus (0 = none, the
    /// default). Each holds path-explosive and wide-branching functions
    /// that stress the analysis limits/budgets without seeding bugs.
    #[serde(default)]
    pub adversarial_modules: usize,
    /// Diamonds chained in each adversarial path-explosion function
    /// (structural paths = 2^depth).
    #[serde(default)]
    pub adversarial_depth: usize,
    /// Known-spurious modules appended to the corpus (0 = none, the
    /// default). Each holds one bug-free function built to fool stage
    /// one's bounded disequality splitting into a report that the exact
    /// second-stage refutation provably kills — the ground-truth
    /// population for measuring the refutation rate (see
    /// `spurious_module` and `REPORTS.md`).
    #[serde(default)]
    pub seeded_spurious: usize,
}

impl KernelConfig {
    /// A small corpus for tests (a handful of modules).
    #[must_use]
    pub fn tiny(seed: u64) -> KernelConfig {
        KernelConfig {
            seed,
            subsystems: 2,
            drivers_per_subsystem: 3,
            filler_modules: 2,
            filler_functions_per_module: 10,
            ..KernelConfig::default()
        }
    }

    /// The default evaluation corpus: calibrated so the §6.3 census and
    /// the Table 1 category *ratios* land near the paper's (see
    /// `EXPERIMENTS.md` for measured values).
    #[must_use]
    pub fn evaluation(seed: u64) -> KernelConfig {
        KernelConfig { seed, ..KernelConfig::default() }
    }

    /// Scales the corpus size (drivers and filler) by `factor`, keeping
    /// the idiom mix constant. Used by the §6.5 performance sweep.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> KernelConfig {
        let scale = |v: usize| ((v as f64 * factor).round() as usize).max(1);
        self.subsystems = scale(self.subsystems);
        self.filler_modules = scale(self.filler_modules);
        self
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            seed: 2016,
            subsystems: 24,
            drivers_per_subsystem: 12,
            filler_modules: 160,
            filler_functions_per_module: 60,
            w_correct: 25,
            w_fig8: 12,
            w_fig9: 6,
            w_double_put: 4,
            w_false_positive: 40,
            w_irq: 8,
            w_loop: 5,
            pct_probe_error_checked: 10,
            adversarial_modules: 0,
            adversarial_depth: 12,
            seeded_spurious: 0,
        }
    }
}

/// A generated kernel corpus: RIL sources plus ground truth.
#[derive(Clone, Debug, Default)]
pub struct KernelCorpus {
    /// RIL module sources (parse with `rid_frontend::parse_program`).
    pub sources: Vec<String>,
    /// All seeded bugs.
    pub bugs: Vec<SeededBugRecord>,
    /// Functions expected to draw a false-positive report (§6.4 idioms).
    pub expected_false_positives: Vec<String>,
    /// §6.3 census: direct `pm_runtime_get*` sites with error handling.
    pub census: Vec<GetCallSite>,
    /// Total functions generated.
    pub function_count: usize,
    /// Adversarial (limit-stressing, bug-free) functions, when
    /// [`KernelConfig::adversarial_modules`] > 0.
    pub adversarial_functions: Vec<String>,
    /// Bug-free functions guaranteed to draw exactly one stage-one report
    /// that exact refutation removes, when
    /// [`KernelConfig::seeded_spurious`] > 0. Ground truth for the
    /// refutation-rate measurement.
    pub spurious_functions: Vec<String>,
}

impl KernelCorpus {
    /// Functions with bugs RID should detect.
    pub fn detectable_bug_functions(&self) -> impl Iterator<Item = &str> {
        self.bugs
            .iter()
            .filter(|b| b.kind.rid_should_detect())
            .map(|b| b.function.as_str())
    }

    /// Functions with bugs RID is expected to miss.
    pub fn missed_bug_functions(&self) -> impl Iterator<Item = &str> {
        self.bugs
            .iter()
            .filter(|b| !b.kind.rid_should_detect())
            .map(|b| b.function.as_str())
    }
}

/// Variant of a generated driver entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    Correct,
    Fig8,
    Fig9,
    DoublePut,
    FalsePositive,
    Irq,
    LoopOnly,
}

const SUBSYSTEM_NAMES: &[&str] = &[
    "usb", "i2c", "spi", "drm", "mmc", "scsi", "net", "tty", "hid", "iio", "rtc", "can",
    "pci", "nvme", "ata", "gpio", "pwm", "dma", "mtd", "phy", "thermal", "media", "sound",
    "input", "virtio", "fpga", "mei", "uwb", "ssb", "vfio", "xen", "hv",
];

const DRIVER_STEMS: &[&str] = &[
    "falcon", "osprey", "heron", "kestrel", "merlin", "condor", "raven", "swift", "ibis",
    "egret", "petrel", "skua", "tern", "gull", "plover", "sandpiper", "curlew", "godwit",
    "avocet", "stilt", "lapwing", "dunlin", "knot", "ruff", "snipe", "phalarope",
];

struct Gen {
    rng: StdRng,
    corpus: KernelCorpus,
}

impl Gen {
    fn pick_variant(&mut self, config: &KernelConfig) -> Variant {
        let table = [
            (Variant::Correct, config.w_correct),
            (Variant::Fig8, config.w_fig8),
            (Variant::Fig9, config.w_fig9),
            (Variant::DoublePut, config.w_double_put),
            (Variant::FalsePositive, config.w_false_positive),
            (Variant::Irq, config.w_irq),
            (Variant::LoopOnly, config.w_loop),
        ];
        let total: u32 = table.iter().map(|(_, w)| w).sum();
        let mut roll = self.rng.gen_range(0..total.max(1));
        for (variant, weight) in table {
            if roll < weight {
                return variant;
            }
            roll -= weight;
        }
        Variant::Correct
    }
}

/// Generates a kernel corpus from `config`. Deterministic in the seed.
#[must_use]
pub fn generate_kernel(config: &KernelConfig) -> KernelCorpus {
    let mut g = Gen { rng: StdRng::seed_from_u64(config.seed), corpus: KernelCorpus::default() };

    for ss_idx in 0..config.subsystems {
        let ss = subsystem_name(ss_idx);
        g.corpus.sources.push(subsystem_core(&ss));
        g.corpus.function_count += 2;
        for drv_idx in 0..config.drivers_per_subsystem {
            let drv = driver_name(&ss, ss_idx, drv_idx);
            let source = driver_module(&mut g, config, &ss, &drv);
            g.corpus.sources.push(source);
        }
    }

    for f_idx in 0..config.filler_modules {
        g.corpus.sources.push(filler_module(f_idx, config.filler_functions_per_module));
        g.corpus.function_count += config.filler_functions_per_module;
        if f_idx % 16 < 13 {
            g.corpus.function_count += 1; // the API-touching init function
        }
    }

    // Adversarial modules come last so corpora generated with the knob off
    // are byte-identical to pre-knob corpora of the same seed.
    for a_idx in 0..config.adversarial_modules {
        let source = adversarial_module(&mut g, a_idx, config.adversarial_depth);
        g.corpus.sources.push(source);
    }

    // Seeded-spurious modules append after the adversarial ones, for the
    // same byte-identity-when-off reason.
    for s_idx in 0..config.seeded_spurious {
        let source = spurious_module(&mut g, s_idx);
        g.corpus.sources.push(source);
    }

    g.corpus
}

/// Guard values in a `spurious_module` function: the argument is bounded
/// to `[0, SPURIOUS_DISEQS - 1]` and then excluded from every value in
/// that interval, so proving the deep path infeasible takes
/// `SPURIOUS_DISEQS` case splits — more than the stage-one default budget
/// of 64 (`rid_solver::SatOptions`), fewer than the second stage's
/// unlimited splitting needs to care about.
pub const SPURIOUS_DISEQS: i64 = 72;

/// One known-spurious module: a single bug-free function whose two
/// deepest paths (reached when `a` evades every equality guard — which no
/// integer can) are enumerated first, survive stage one's feasibility
/// checks only because the split budget exhausts toward "satisfiable"
/// (§5.4), and pair into exactly one IPP report. The paths nest inside
/// the guards so then-first DFS emits them at indices 0 and 1, safely
/// under the entry cap that truncates the later guard-exit paths. The
/// report's joint constraint is genuinely unsatisfiable, so the exact
/// refutation pass removes it — deterministically, for every seed.
fn spurious_module(g: &mut Gen, idx: usize) -> String {
    let mut out = format!("module spurious{idx};\n");
    out.push_str("extern fn pm_runtime_get_sync;\n\n");
    let func = format!("spur{idx}_commit");
    let _ = writeln!(out, "fn {func}(dev, a) {{");
    out.push_str("    if (a >= 0) {\n");
    let _ = writeln!(out, "    if (a <= {}) {{", SPURIOUS_DISEQS - 1);
    for k in 0..SPURIOUS_DISEQS {
        let _ = writeln!(out, "    if (a != {k}) {{");
    }
    out.push_str("    let r = random;\n");
    out.push_str("    if (r < 0) {\n        pm_runtime_get_sync(dev);\n        return 0;\n    }\n");
    out.push_str("    return 0;\n");
    for _ in 0..SPURIOUS_DISEQS + 2 {
        out.push_str("    }\n");
    }
    out.push_str("    return -1;\n}\n");
    g.corpus.function_count += 1;
    g.corpus.spurious_functions.push(func);
    out
}

/// One adversarial module: a path-explosion function (a chain of `depth`
/// diamonds ⇒ 2^depth structural paths) and a wide equality-switch
/// function. Both are balanced (no seeded bugs) and category 1 (they call
/// refcount APIs), so selective analysis cannot skip them — they exist to
/// stress path caps, deadlines, and solver budgets.
fn adversarial_module(g: &mut Gen, idx: usize, depth: usize) -> String {
    let mut out = format!("module adversarial{idx};\n");
    out.push_str("extern fn pm_runtime_get_sync;\nextern fn pm_runtime_put;\n\n");

    let explosive = format!("adv{idx}_paths");
    let _ = write!(out, "fn {explosive}(dev) {{\n    pm_runtime_get_sync(dev);\n");
    for d in 0..depth.max(1) {
        let _ = write!(
            out,
            "    let c{d} = random;\n    if (c{d} < 0) {{ dev.aux{d} = 1; }}\n"
        );
    }
    out.push_str("    pm_runtime_put(dev);\n    return 0;\n}\n\n");

    let switch = format!("adv{idx}_switch");
    let _ = write!(
        out,
        "fn {switch}(dev, x) {{\n    pm_runtime_get_sync(dev);\n    pm_runtime_put(dev);\n"
    );
    for arm in 0..32 {
        let _ = writeln!(out, "    if (x == {arm}) {{ return {arm}; }}");
    }
    out.push_str("    return -1;\n}\n");

    g.corpus.function_count += 2;
    g.corpus.adversarial_functions.push(explosive);
    g.corpus.adversarial_functions.push(switch);
    out
}

fn subsystem_name(idx: usize) -> String {
    let base = SUBSYSTEM_NAMES[idx % SUBSYSTEM_NAMES.len()];
    if idx < SUBSYSTEM_NAMES.len() {
        base.to_owned()
    } else {
        format!("{base}{}", idx / SUBSYSTEM_NAMES.len())
    }
}

fn driver_name(ss: &str, ss_idx: usize, drv_idx: usize) -> String {
    let stem = DRIVER_STEMS[(ss_idx * 7 + drv_idx) % DRIVER_STEMS.len()];
    format!("{ss}_{stem}{drv_idx}")
}

/// The per-subsystem wrapper layer: the `usb_autopm_get_interface` pattern
/// of Figure 9 (balances the count when the get fails).
fn subsystem_core(ss: &str) -> String {
    format!(
        r#"module {ss}_core;
extern fn pm_runtime_get_sync;
extern fn pm_runtime_put_sync;

fn {ss}_autopm_get(intf) {{
    let status = pm_runtime_get_sync(intf.dev);
    if (status < 0) {{
        pm_runtime_put_sync(intf.dev);
    }}
    if (status > 0) {{
        status = 0;
    }}
    return status;
}}

fn {ss}_autopm_put(intf) {{
    pm_runtime_put_sync(intf.dev);
    return;
}}
"#
    )
}

/// One driver module: probe + two variant entry points + helpers spanning
/// the classification categories.
fn driver_module(g: &mut Gen, config: &KernelConfig, ss: &str, drv: &str) -> String {
    let mut out = format!("module {drv};\n");
    out.push_str("extern fn pm_runtime_get_sync;\nextern fn pm_runtime_put;\n\n");

    // Probe: correct; sometimes error-checked (entering the §6.3 census).
    let checked = g.rng.gen_range(0..100) < config.pct_probe_error_checked;
    emit_probe(g, &mut out, drv, checked);

    // Two variant entry points per driver.
    for (slot, suffix) in [("open", "open"), ("ioctl", "ioctl")] {
        let _ = slot;
        let variant = g.pick_variant(config);
        emit_variant(g, &mut out, config, ss, drv, suffix, variant);
    }

    // Suspend path: always correct, exercising the noresume/noidle API
    // variants and an argument-field guard (distinguishable, hence clean).
    let _ = write!(
        out,
        r#"fn {drv}_suspend(dev) {{
    let active = dev.state;
    if (active == 0) {{
        return 0;
    }}
    pm_runtime_get_noresume(dev);
    {drv}_save_state(dev);
    pm_runtime_put_noidle(dev);
    return 0;
}}

"#
    );
    g.corpus.function_count += 1;

    // Helpers: category-2 analyzed (simple status), category-2 skipped
    // (complex init), category-3 (void logger).
    emit_helpers(g, &mut out, drv);

    out
}

fn emit_probe(g: &mut Gen, out: &mut String, drv: &str, error_checked: bool) {
    let func = format!("{drv}_probe");
    if error_checked {
        // Correct: the error path balances the increment.
        let _ = write!(
            out,
            r#"fn {func}(dev) {{
    let ret = pm_runtime_get_sync(dev);
    if (ret < 0) {{
        pm_runtime_put(dev);
        return ret;
    }}
    let st = {drv}_hw_init(dev);
    pm_runtime_put(dev);
    return st;
}}

"#
        );
        g.corpus.census.push(GetCallSite {
            function: func,
            missing_decrement: false,
            rid_detectable: true,
        });
    } else {
        let _ = write!(
            out,
            r#"fn {func}(dev) {{
    pm_runtime_get_sync(dev);
    let st = {drv}_hw_init(dev);
    pm_runtime_put(dev);
    return st;
}}

"#
        );
    }
    g.corpus.function_count += 1;
}

fn emit_variant(
    g: &mut Gen,
    out: &mut String,
    _config: &KernelConfig,
    ss: &str,
    drv: &str,
    suffix: &str,
    variant: Variant,
) {
    let func = format!("{drv}_{suffix}");
    g.corpus.function_count += 1;
    let err = -(g.rng.gen_range(1..6) as i64);
    match variant {
        Variant::Correct => {
            // Most correct call sites do not check the get's return value
            // at all (and so fall outside the §6.3 census); a minority
            // check it and balance correctly.
            if g.rng.gen_range(0..100) < 15 {
                let _ = write!(
                    out,
                    r#"fn {func}(dev, arg) {{
    let ret = pm_runtime_get_sync(dev);
    if (ret < 0) {{
        pm_runtime_put(dev);
        return ret;
    }}
    ret = {drv}_do_{suffix}(dev, arg);
    pm_runtime_put(dev);
    return ret;
}}

"#
                );
                g.corpus.census.push(GetCallSite {
                    function: func,
                    missing_decrement: false,
                    rid_detectable: true,
                });
            } else {
                let _ = write!(
                    out,
                    r#"fn {func}(dev, arg) {{
    pm_runtime_get_sync(dev);
    let ret = {drv}_do_{suffix}(dev, arg);
    pm_runtime_put(dev);
    return ret;
}}

"#
                );
            }
        }
        Variant::Fig8 => {
            let _ = write!(
                out,
                r#"fn {func}(dev, arg) {{
    let ret = pm_runtime_get_sync(dev);
    if (ret < 0) {{
        return ret;
    }}
    ret = {drv}_do_{suffix}(dev, arg);
    pm_runtime_put(dev);
    return ret;
}}

"#
            );
            g.corpus.census.push(GetCallSite {
                function: func.clone(),
                missing_decrement: true,
                rid_detectable: true,
            });
            g.corpus
                .bugs
                .push(SeededBugRecord { function: func, kind: SeededBug::MissingPutOnGetError });
        }
        Variant::Fig9 => {
            let _ = write!(
                out,
                r#"fn {func}(inode, file) {{
    let interface = inode.intf;
    let result = {ss}_autopm_get(interface);
    if (result) {{ goto error; }}
    result = {drv}_prepare_{suffix}(inode);
    if (result) {{ goto error; }}
    {ss}_autopm_put(interface);
error:
    return result;
}}

"#
            );
            g.corpus
                .bugs
                .push(SeededBugRecord { function: func, kind: SeededBug::MissingPutOnOpError });
        }
        Variant::DoublePut => {
            let _ = write!(
                out,
                r#"fn {func}(dev) {{
    pm_runtime_get_sync(dev);
    let st = {drv}_read_status(dev);
    if (st < 0) {{
        pm_runtime_put(dev);
    }}
    pm_runtime_put(dev);
    return 0;
}}

"#
            );
            g.corpus.bugs.push(SeededBugRecord { function: func, kind: SeededBug::DoublePut });
        }
        Variant::FalsePositive => {
            // §6.4: the retained reference is intentional and signalled by
            // a field store, which is outside RID's abstraction — the two
            // paths look indistinguishable and a spurious report follows.
            let _ = write!(
                out,
                r#"fn {func}(dev, req) {{
    pm_runtime_get_sync(dev);
    let mode = {drv}_read_status(dev);
    if (mode > 0) {{
        dev.active = 1;
        return 0;
    }}
    pm_runtime_put(dev);
    return 0;
}}

"#
            );
            g.corpus.expected_false_positives.push(func);
        }
        Variant::Irq => {
            let _ = write!(
                out,
                r#"fn {func}(irq, data) {{
    let ret = pm_runtime_get_sync(data.dev);
    if (ret < 0) {{
        {drv}_err(data);
        return 0;
    }}
    {drv}_handle(data);
    pm_runtime_put(data.dev);
    return 1;
}}

"#
            );
            // The handler is installed through a function pointer — the
            // very reason baseline RID misses it (and the callback
            // extension catches it).
            let _ = write!(
                out,
                r#"fn {func}_setup(dev) {{
    request_irq(dev.irq, @{func}, dev);
    return 0;
}}

"#
            );
            g.corpus.function_count += 1;
            g.corpus.census.push(GetCallSite {
                function: func.clone(),
                missing_decrement: true,
                rid_detectable: false,
            });
            g.corpus
                .bugs
                .push(SeededBugRecord { function: func, kind: SeededBug::IrqHandlerStyle });
        }
        Variant::LoopOnly => {
            let _ = write!(
                out,
                r#"fn {func}(dev) {{
    let entered = 0;
    let more = {drv}_more_work(dev);
    while (more) {{
        pm_runtime_get_sync(dev);
        entered = 1;
        more = {drv}_more_work(dev);
    }}
    if (entered) {{
        pm_runtime_put(dev);
    }}
    return 0;
}}

"#
            );
            g.corpus.bugs.push(SeededBugRecord { function: func, kind: SeededBug::LoopOnly });
        }
    }
    let _ = err;
}

fn emit_helpers(g: &mut Gen, out: &mut String, drv: &str) {
    // Category-2 analyzed: a simple status read feeding error checks.
    let _ = write!(
        out,
        r#"fn {drv}_read_status(dev) {{
    let v = random;
    if (v > 127) {{ return -1; }}
    return v;
}}

"#
    );
    // Category-2 skipped: >3 conditional branches.
    let _ = writeln!(out, "fn {drv}_hw_init(dev) {{");
    for i in 0..5 {
        let _ = write!(
            out,
            "    let c{i} = random;\n    if (c{i} < 0) {{ return -{} ; }}\n",
            i + 1
        );
    }
    let _ = write!(out, "    return 0;\n}}\n\n");
    // Category-3: result never feeds refcount behaviour.
    let _ = write!(
        out,
        r#"fn {drv}_err(data) {{
    {drv}_trace(data);
    return;
}}

fn {drv}_trace(data) {{
    return;
}}
"#
    );
    g.corpus.function_count += 4;
    let _ = g;
}

/// Resource families whose get/put externs filler modules reference —
/// these make the mined API inventory (§3.1) and the files-touching-APIs
/// census realistic without perturbing the Table 1 category counts (the
/// externs have no predefined summaries, so callers stay category 3 under
/// the DPM-only specification).
const RESOURCE_POOLS: &[&str] = &[
    "skb", "dmabuf", "fence", "folio", "bio", "cgroup", "inode_ref", "dentry", "kobj",
    "module_ref", "fw", "regulator", "clk", "irqdesc", "msi", "vma", "pidref", "nsproxy",
    "blkg", "queue", "tag", "ctx", "mm_ref", "net_ref", "sock_ref", "page_pool",
];

fn filler_module(idx: usize, functions: usize) -> String {
    let mut out = format!("module filler{idx};\n");
    // ~81% of filler modules reference a refcount-style API pair (get +
    // balanced put), mirroring the paper's observation that 93.5% of
    // kernel *files* touch refcount APIs even though ~97% of *functions*
    // are refcount-irrelevant (§3.1 vs Table 1).
    let touches_apis = idx % 16 < 13;
    if touches_apis {
        let pool = RESOURCE_POOLS[idx % RESOURCE_POOLS.len()];
        let family = format!("{pool}{}", idx / RESOURCE_POOLS.len());
        // Rotate through the kernel's usual verb antonyms so the mined
        // inventory spans several families, as in §3.1.
        let (inc, dec) = match idx % 5 {
            0 => ("get", "put"),
            1 => ("ref", "unref"),
            2 => ("acquire", "release"),
            3 => ("inc", "dec"),
            _ => ("grab", "drop"),
        };
        let _ = writeln!(
            out,
            "fn filler{idx}_init(x) {{ {family}_{inc}(x); {family}_{dec}(x); return; }}"
        );
    }
    for f in 0..functions {
        if f + 1 < functions && f % 3 == 0 {
            let _ = writeln!(
                out,
                "fn filler{idx}_f{f}(x) {{ filler{idx}_f{}(x); return; }}",
                f + 1
            );
        } else {
            let _ = writeln!(out, "fn filler{idx}_f{f}(x) {{ return x; }}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rid_frontend::parse_program;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_kernel(&KernelConfig::tiny(7));
        let b = generate_kernel(&KernelConfig::tiny(7));
        assert_eq!(a.sources, b.sources);
        assert_eq!(a.bugs, b.bugs);
        let c = generate_kernel(&KernelConfig::tiny(8));
        assert_ne!(a.sources, c.sources);
    }

    #[test]
    fn sources_parse_and_link() {
        let corpus = generate_kernel(&KernelConfig::tiny(1));
        let program = parse_program(corpus.sources.iter().map(String::as_str))
            .expect("generated corpus must parse");
        assert!(program.function_count() > 20);
    }

    #[test]
    fn census_tracks_buggy_and_correct_sites() {
        let corpus = generate_kernel(&KernelConfig::evaluation(2016));
        assert!(!corpus.census.is_empty());
        let buggy = corpus.census.iter().filter(|s| s.missing_decrement).count();
        let correct = corpus.census.len() - buggy;
        assert!(buggy > 0 && correct > 0);
        // The paper's §6.3 shape: roughly 70% of error-handled call sites
        // miss the decrement. Allow a generous band.
        let pct = buggy * 100 / corpus.census.len();
        assert!((50..=90).contains(&pct), "buggy census fraction {pct}%");
    }

    #[test]
    fn bug_mix_contains_all_classes() {
        let corpus = generate_kernel(&KernelConfig::evaluation(2016));
        let kinds: std::collections::HashSet<SeededBug> =
            corpus.bugs.iter().map(|b| b.kind).collect();
        assert!(kinds.contains(&SeededBug::MissingPutOnGetError));
        assert!(kinds.contains(&SeededBug::MissingPutOnOpError));
        assert!(kinds.contains(&SeededBug::DoublePut));
        assert!(kinds.contains(&SeededBug::IrqHandlerStyle));
        assert!(kinds.contains(&SeededBug::LoopOnly));
        assert!(!corpus.expected_false_positives.is_empty());
    }

    #[test]
    fn scaling_changes_size() {
        let base = KernelConfig::evaluation(1);
        let half = base.clone().scaled(0.5);
        assert!(half.subsystems < base.subsystems);
        assert!(half.filler_modules < base.filler_modules);
        let tiny_corpus = generate_kernel(&KernelConfig::tiny(1));
        let eval_corpus = generate_kernel(&base.scaled(0.1));
        assert!(eval_corpus.function_count > tiny_corpus.function_count);
    }

    #[test]
    fn adversarial_knob_defaults_off_and_appends() {
        // Knob off ⇒ corpora identical to pre-knob generation.
        let plain = generate_kernel(&KernelConfig::tiny(3));
        assert!(plain.adversarial_functions.is_empty());

        let config = KernelConfig {
            adversarial_modules: 2,
            adversarial_depth: 4,
            ..KernelConfig::tiny(3)
        };
        let adv = generate_kernel(&config);
        // The adversarial modules append; everything before is unchanged.
        assert_eq!(adv.sources[..plain.sources.len()], plain.sources[..]);
        assert_eq!(adv.sources.len(), plain.sources.len() + 2);
        assert_eq!(adv.adversarial_functions.len(), 4);
        assert_eq!(adv.bugs, plain.bugs, "adversarial functions seed no bugs");
        assert_eq!(adv.function_count, plain.function_count + 4);

        let program = parse_program(adv.sources.iter().map(String::as_str))
            .expect("adversarial corpus must parse");
        for name in &adv.adversarial_functions {
            assert!(program.function(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn spurious_knob_defaults_off_and_appends() {
        let plain = generate_kernel(&KernelConfig::tiny(3));
        assert!(plain.spurious_functions.is_empty());

        let config = KernelConfig { seeded_spurious: 3, ..KernelConfig::tiny(3) };
        let spur = generate_kernel(&config);
        assert_eq!(spur.sources[..plain.sources.len()], plain.sources[..]);
        assert_eq!(spur.sources.len(), plain.sources.len() + 3);
        assert_eq!(spur.spurious_functions.len(), 3);
        assert_eq!(spur.bugs, plain.bugs, "spurious functions seed no bugs");
        assert_eq!(spur.function_count, plain.function_count + 3);

        let program = parse_program(spur.sources.iter().map(String::as_str))
            .expect("spurious corpus must parse");
        for name in &spur.spurious_functions {
            assert!(program.function(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn detectable_and_missed_partitions() {
        let corpus = generate_kernel(&KernelConfig::evaluation(2016));
        let detectable = corpus.detectable_bug_functions().count();
        let missed = corpus.missed_bug_functions().count();
        assert_eq!(detectable + missed, corpus.bugs.len());
        assert!(detectable > missed, "detectable classes dominate");
    }
}
