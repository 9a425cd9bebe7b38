//! Memory-footprint accounting for the interned struct-of-arrays IR.
//!
//! [`measure_program`] walks a linked [`Program`] and produces two
//! numbers side by side:
//!
//! * **`resident_bytes`** — the heap bytes the *current* layout actually
//!   holds: the per-function instruction/terminator/start arenas
//!   ([`Function::arena_bytes`]), call-argument vectors, module and
//!   index tables, and the process-global intern table (counted once —
//!   that is the point of interning).
//! * **`string_layout_bytes`** — the same IR priced under the
//!   *pre-interning* layout this crate used to have: one owned `String`
//!   per name occurrence and one heap `Vec` per basic block. The old
//!   container shapes are reconstructed as private shadow types below,
//!   so the inline widths are computed by the compiler
//!   (`size_of::<OldInst>()`), not hand-derived constants; only the
//!   heap model (capacity == length, no allocator slack) is an
//!   assumption, and it is an assumption that *favors* the old layout.
//!
//! The ratio between the two is the benchmark's bytes-per-function
//! reduction claim; keeping both sides mechanical keeps the claim
//! honest across future IR changes.

use crate::{Function, Inst, Operand, Program, Rvalue, Sym, Terminator};

/// Shadow copies of the pre-interning IR containers, used only as
/// `size_of` witnesses for [`MemoryFootprint::string_layout_bytes`].
/// Field names and variant shapes mirror the old definitions exactly;
/// `String` stands where [`Sym`] now is, and blocks own their
/// instruction vectors (the old array-of-structs layout).
mod old_layout {
    #![allow(dead_code)] // size_of witnesses; never constructed.

    use crate::{BlockId, Pred};

    pub(super) enum OldOperand {
        Var(String),
        Int(i64),
        Bool(bool),
        Null,
        FuncRef(String),
    }

    pub(super) enum OldRvalue {
        Use(OldOperand),
        FieldLoad { base: String, field: String },
        Random,
        Cmp { pred: Pred, lhs: OldOperand, rhs: OldOperand },
        Call { callee: String, args: Vec<OldOperand> },
    }

    pub(super) enum OldInst {
        Assign { dst: String, rvalue: OldRvalue },
        Call { callee: String, args: Vec<OldOperand> },
        Assume { pred: Pred, lhs: OldOperand, rhs: OldOperand },
        FieldStore { base: String, field: String, value: OldOperand },
    }

    pub(super) enum OldTerminator {
        Jump(BlockId),
        Branch { cond: String, then_bb: BlockId, else_bb: BlockId },
        Return(Option<OldOperand>),
        Unreachable,
    }

    pub(super) struct OldBasicBlock {
        pub insts: Vec<OldInst>,
        pub term: OldTerminator,
    }

    pub(super) struct OldFunction {
        pub name: String,
        pub params: Vec<String>,
        pub blocks: Vec<OldBasicBlock>,
        pub weak: bool,
    }

    pub(super) struct OldModule {
        pub name: String,
        pub functions: Vec<OldFunction>,
        pub externs: Vec<String>,
    }
}

use old_layout::{OldBasicBlock, OldFunction, OldInst, OldModule, OldOperand};

/// Modeled per-entry bookkeeping of a `std::collections::HashMap` slot
/// beyond the key/value pair itself (control byte plus load-factor
/// slack, rounded to one word). Used symmetrically on both sides of the
/// comparison, so its exact value does not move the ratio.
const MAP_SLOT_OVERHEAD: usize = 8;

/// Heap-byte accounting of one [`Program`] under the current and the
/// pre-interning layout. All fields are exact walks of the same IR; see
/// the module docs for the one modeling assumption.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Canonical function definitions walked (the denominator of
    /// bytes-per-function figures).
    pub functions: usize,
    /// Measured heap bytes of the current interned struct-of-arrays
    /// layout, including the intern table (counted once).
    pub resident_bytes: usize,
    /// Of `resident_bytes`: the process-global intern table (string
    /// text plus the resolve table's allocated segments).
    pub interner_bytes: usize,
    /// Name occurrences in the walked IR — each of these was an owned
    /// `String` in the old layout and is a 4-byte [`Sym`] now.
    pub sym_occurrences: usize,
    /// Total text bytes across those occurrences (with duplicates —
    /// the old layout stored every copy).
    pub sym_text_bytes: usize,
    /// The same IR priced under the old `String` + array-of-structs
    /// layout (shadow-type inline widths, capacity == length heap
    /// model).
    pub string_layout_bytes: usize,
}

impl MemoryFootprint {
    /// `resident_bytes / functions` (0 for an empty program).
    #[must_use]
    pub fn bytes_per_function(&self) -> f64 {
        if self.functions == 0 {
            0.0
        } else {
            self.resident_bytes as f64 / self.functions as f64
        }
    }

    /// `string_layout_bytes / resident_bytes` — how many times larger
    /// the pre-interning layout is (0 for an empty program).
    #[must_use]
    pub fn reduction_ratio(&self) -> f64 {
        if self.resident_bytes == 0 {
            0.0
        } else {
            self.string_layout_bytes as f64 / self.resident_bytes as f64
        }
    }
}

/// Running totals of one walk; both layouts are accumulated in a single
/// pass so they cannot drift out of sync.
#[derive(Default)]
struct Walk {
    occurrences: usize,
    text_bytes: usize,
    /// Heap bytes specific to the current layout (arenas, arg vectors).
    new_heap: usize,
    /// Heap bytes specific to the old layout (strings, block vectors).
    old_heap: usize,
}

impl Walk {
    /// One name occurrence: free in the new layout (the 4-byte handle is
    /// inline, the text is shared in the intern table), one 24-byte
    /// `String` header's *heap block* in the old (the header itself is
    /// inline in the containing enum and priced by its shadow width).
    fn sym(&mut self, sym: Sym) {
        self.occurrences += 1;
        let len = sym.as_str().len();
        self.text_bytes += len;
        self.old_heap += len;
    }

    fn operand(&mut self, op: &Operand) {
        match op {
            Operand::Var(name) | Operand::FuncRef(name) => self.sym(*name),
            Operand::Int(_) | Operand::Bool(_) | Operand::Null => {}
        }
    }

    fn args(&mut self, args: &[Operand]) {
        self.new_heap += std::mem::size_of_val(args);
        self.old_heap += args.len() * std::mem::size_of::<OldOperand>();
        for arg in args {
            self.operand(arg);
        }
    }

    fn inst(&mut self, inst: &Inst) {
        match inst {
            Inst::Assign { dst, rvalue } => {
                self.sym(*dst);
                match rvalue {
                    Rvalue::Use(op) => self.operand(op),
                    Rvalue::FieldLoad { base, field } => {
                        self.sym(*base);
                        self.sym(*field);
                    }
                    Rvalue::Random => {}
                    Rvalue::Cmp { lhs, rhs, .. } => {
                        self.operand(lhs);
                        self.operand(rhs);
                    }
                    Rvalue::Call { callee, args } => {
                        self.sym(*callee);
                        self.args(args);
                    }
                }
            }
            Inst::Call { callee, args } => {
                self.sym(*callee);
                self.args(args);
            }
            Inst::Assume { lhs, rhs, .. } => {
                self.operand(lhs);
                self.operand(rhs);
            }
            Inst::FieldStore { base, field, value } => {
                self.sym(*base);
                self.sym(*field);
                self.operand(value);
            }
        }
    }

    fn function(&mut self, func: &Function) {
        self.sym(func.name_sym());
        for &param in func.params() {
            self.sym(param);
        }
        // New: three flat arenas plus the param table, measured.
        self.new_heap += func.arena_bytes();
        // Old: a Vec<OldBasicBlock> spine, one Vec<OldInst> heap block
        // per basic block, and a Vec<String> of params.
        self.old_heap += func.block_count() * std::mem::size_of::<OldBasicBlock>();
        self.old_heap += func.params().len() * std::mem::size_of::<String>();
        for block in func.blocks() {
            self.old_heap += block.insts.len() * std::mem::size_of::<OldInst>();
            for inst in block.insts {
                self.inst(inst);
            }
            if let Terminator::Branch { cond, .. } = block.term {
                self.sym(*cond);
            }
            if let Terminator::Return(Some(op)) = block.term {
                self.operand(op);
            }
        }
    }
}

/// Walks `program` and prices it under both layouts. See the module
/// docs; the walk covers every linked module (including weak-shadowed
/// duplicate definitions — both layouts hold those in memory too).
#[must_use]
pub fn measure_program(program: &Program) -> MemoryFootprint {
    let mut walk = Walk::default();
    for module in program.modules() {
        walk.sym(module.name);
        walk.new_heap += std::mem::size_of_val(module.functions());
        walk.new_heap += std::mem::size_of_val(module.externs());
        walk.old_heap += module.functions().len() * std::mem::size_of::<OldFunction>();
        walk.old_heap += module.externs().len() * std::mem::size_of::<String>();
        for &ext in module.externs() {
            walk.sym(ext);
        }
        for func in module.functions() {
            walk.function(func);
        }
    }
    // The module spine and the name → definition index. Key width is
    // the only difference between the layouts here.
    let modules = program.modules().len();
    let index = program.function_count();
    let slot = std::mem::size_of::<(usize, usize)>() + MAP_SLOT_OVERHEAD;
    walk.new_heap += std::mem::size_of_val(program.modules());
    walk.new_heap += index * (std::mem::size_of::<Sym>() + slot);
    walk.old_heap += modules * std::mem::size_of::<OldModule>();
    walk.old_heap += index * (std::mem::size_of::<String>() + slot);
    for func in program.functions() {
        // Index keys duplicate the name text in the old layout.
        walk.old_heap += func.name().len();
    }

    // The intern table: text bytes plus the id → text resolve table as
    // allocated (whole segments, unfilled slots included), counted once
    // per process. Charging the *whole* table to this program
    // over-counts when other IR is live, which again only understates
    // the reduction.
    let interner_bytes = Sym::interned_bytes() + Sym::resolve_table_bytes();

    MemoryFootprint {
        functions: program.function_count(),
        resident_bytes: walk.new_heap + interner_bytes,
        interner_bytes,
        sym_occurrences: walk.occurrences,
        sym_text_bytes: walk.text_bytes,
        string_layout_bytes: walk.old_heap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FunctionBuilder, Module, Pred};

    fn sample_program_sized(functions: usize) -> Program {
        let mut module = Module::new("mem_test.ril");
        for i in 0..functions {
            let mut b = FunctionBuilder::new(
                format!("mem_test_fn_{i}"),
                ["device_argument_name"],
            );
            let exit = b.new_block();
            let body = b.new_block();
            b.assign(
                "status_value",
                Rvalue::call("mem_test_helper", [Operand::var("device_argument_name")]),
            );
            b.assign(
                "flag",
                Rvalue::cmp(Pred::Le, Operand::var("status_value"), Operand::Int(0)),
            );
            b.branch("flag", exit, body);
            b.switch_to(body);
            b.call("mem_test_put", [Operand::var("device_argument_name")]);
            b.jump(exit);
            b.switch_to(exit);
            b.ret(Operand::var("status_value"));
            module.push_function(b.finish().unwrap());
        }
        Program::from_module(module).unwrap()
    }

    #[test]
    fn counts_every_name_occurrence() {
        let program = sample_program_sized(4);
        let fp = measure_program(&program);
        assert_eq!(fp.functions, 4);
        // Per function: name + param + dst/callee/arg + dst/cmp-lhs +
        // branch cond + callee/arg + return operand = 11, plus the
        // module name.
        assert_eq!(fp.sym_occurrences, 4 * 11 + 1);
        assert!(fp.sym_text_bytes > fp.sym_occurrences); // multi-byte names
    }

    #[test]
    fn interned_layout_is_smaller_on_shared_names() {
        // Large enough that this program's own footprint dominates the
        // process-global intern table, which other tests in this binary
        // also grow (resident_bytes charges the whole table).
        let program = sample_program_sized(128);
        let fp = measure_program(&program);
        assert!(fp.resident_bytes > 0);
        assert!(
            fp.string_layout_bytes > fp.resident_bytes,
            "old layout {} must exceed interned layout {}",
            fp.string_layout_bytes,
            fp.resident_bytes
        );
        assert!(fp.reduction_ratio() > 1.0);
        assert!(fp.bytes_per_function() > 0.0);
    }

    #[test]
    fn empty_program_is_all_zero_except_interner() {
        let fp = measure_program(&Program::new());
        assert_eq!(fp.functions, 0);
        assert_eq!(fp.sym_occurrences, 0);
        assert_eq!(fp.string_layout_bytes, 0);
        assert_eq!(fp.bytes_per_function(), 0.0);
        // The process-global intern table is still charged.
        assert_eq!(fp.resident_bytes, fp.interner_bytes);
    }

    #[test]
    fn old_inline_widths_exceed_new() {
        // The shadow types must be wider than the interned originals —
        // if this ever fails the old-layout model has rotted.
        use super::old_layout::*;
        assert!(std::mem::size_of::<OldOperand>() > std::mem::size_of::<Operand>());
        assert!(std::mem::size_of::<OldInst>() > std::mem::size_of::<Inst>());
        assert!(
            std::mem::size_of::<OldTerminator>() > std::mem::size_of::<Terminator>()
        );
        // The intern-table charge must keep up with the real table: its
        // text plus at least one resolve slot per name. (Counts only grow,
        // so reading them around the measurement brackets it even while
        // other tests intern.)
        let slot = std::mem::size_of::<std::sync::OnceLock<&'static str>>();
        let count = Sym::interned_count();
        let floor = Sym::interned_bytes() + Sym::resolve_table_bytes();
        let charged = measure_program(&Program::new()).interner_bytes;
        let ceiling = Sym::interned_bytes() + Sym::resolve_table_bytes();
        assert!(floor <= charged && charged <= ceiling, "{floor} <= {charged} <= {ceiling}");
        assert!(Sym::resolve_table_bytes() >= count * slot);
    }
}
