//! Modules (compilation units) and whole programs.

use std::collections::HashMap;
use std::fmt;

use crate::{Function, Sym};

/// A compilation unit: a named collection of function definitions plus the
/// names of external functions it references (functions defined elsewhere
/// or known only through predefined summaries, §5.1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Module {
    /// The module name (e.g. a source file path).
    pub name: Sym,
    functions: Vec<Function>,
    externs: Vec<Sym>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<Sym>) -> Module {
        Module { name: name.into(), functions: Vec::new(), externs: Vec::new() }
    }

    /// Adds a function definition.
    pub fn push_function(&mut self, func: Function) {
        self.functions.push(func);
    }

    /// Declares an external function referenced by this module.
    pub fn push_extern(&mut self, name: impl Into<Sym>) {
        self.externs.push(name.into());
    }

    /// The function definitions in this module.
    #[must_use]
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// The declared external function names.
    #[must_use]
    pub fn externs(&self) -> &[Sym] {
        &self.externs
    }

    /// Looks up a function definition by name.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&Function> {
        let sym = Sym::lookup(name)?;
        self.functions.iter().find(|f| f.name_sym() == sym)
    }

    /// Names of symbols this module *uses* but does not define — the edges
    /// of the module dependency graph of §5.3.
    pub fn undefined_references(&self) -> Vec<&'static str> {
        let defined: std::collections::HashSet<Sym> =
            self.functions.iter().map(Function::name_sym).collect();
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for func in &self.functions {
            for callee in func.callee_syms() {
                if !defined.contains(&callee) && seen.insert(callee) {
                    out.push(callee.as_str());
                }
            }
        }
        out
    }
}

/// An error combining modules into a [`Program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// Two strong (non-weak) definitions of the same function.
    DuplicateFunction(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::DuplicateFunction(name) => {
                write!(f, "duplicate strong definition of function `{name}`")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A whole program: one or more linked modules with a global function
/// namespace.
///
/// Duplicate *weak* definitions (functions defined in headers, marked weak
/// per §5.3 of the paper) are merged: the first strong definition wins; if
/// all copies are weak, the first weak copy is kept.
#[derive(Clone, Debug, Default)]
pub struct Program {
    modules: Vec<Module>,
    /// function name → (module index, function index). Keyed by interned
    /// handle: inserts and lookups hash 4 bytes, and lookups by text go
    /// through the non-inserting [`Sym::lookup`] so probing for unknown
    /// names never grows the intern table.
    index: HashMap<Sym, (usize, usize)>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Program {
        Program::default()
    }

    /// Creates a program from a single module.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::DuplicateFunction`] on duplicate strong
    /// definitions within the module.
    pub fn from_module(module: Module) -> Result<Program, ProgramError> {
        let mut p = Program::new();
        p.link(module)?;
        Ok(p)
    }

    /// Pre-sizes the program for a known load: `modules` more modules
    /// holding `functions` more functions in total. Bulk callers that
    /// link a whole snapshot or corpus at once avoid the incremental
    /// rehash/regrow cost of the symbol index this way; purely an
    /// allocation hint, never required for correctness.
    pub fn reserve(&mut self, modules: usize, functions: usize) {
        self.modules.reserve(modules);
        self.index.reserve(functions);
    }

    /// Links a module into the program (the §5.3 weak-symbol merge).
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::DuplicateFunction`] when two strong
    /// definitions of the same name collide.
    pub fn link(&mut self, module: Module) -> Result<(), ProgramError> {
        let mod_idx = self.modules.len();
        for (fn_idx, func) in module.functions().iter().enumerate() {
            match self.index.get(&func.name_sym()) {
                None => {
                    self.index.insert(func.name_sym(), (mod_idx, fn_idx));
                }
                Some(&(mi, fi)) => {
                    let existing = &self.modules[mi].functions[fi];
                    match (existing.weak, func.weak) {
                        // Existing weak, new strong: the strong one wins.
                        (true, false) => {
                            self.index.insert(func.name_sym(), (mod_idx, fn_idx));
                        }
                        // New weak (existing anything): keep existing.
                        (_, true) => {}
                        (false, false) => {
                            return Err(ProgramError::DuplicateFunction(
                                func.name().to_owned(),
                            ));
                        }
                    }
                }
            }
        }
        self.modules.push(module);
        Ok(())
    }

    /// Replaces the already-linked module with the same [`Module::name`]
    /// (or links `module` fresh when no module of that name exists) and
    /// rebuilds the symbol index. This is the incremental-relink
    /// operation `rid serve` uses for `patch` requests: it touches only
    /// the index — no other module is cloned or re-linked, so its cost
    /// is O(total functions) hash inserts, not a deep copy of the
    /// program.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::DuplicateFunction`] when the replacement
    /// introduces a second strong definition of some name. The program
    /// is left unchanged in that case.
    pub fn replace_module(&mut self, module: Module) -> Result<(), ProgramError> {
        let position = self.modules.iter().position(|m| m.name == module.name);

        // Fast path for the overwhelmingly common edit — same functions,
        // new bodies. When the replacement defines exactly the same
        // (name, weakness) signature as the module it replaces, no
        // winner of the weak-symbol resolution can change anywhere in
        // the program; only this module's intra-module positions can.
        // Patch those index entries directly instead of rebuilding the
        // whole index.
        if let Some(i) = position {
            fn signature(m: &Module) -> Option<HashMap<Sym, bool>> {
                let sig: HashMap<Sym, bool> =
                    m.functions().iter().map(|f| (f.name_sym(), f.weak)).collect();
                // A module with an internal duplicate name takes the
                // slow path: index resolution within it is positional.
                (sig.len() == m.functions().len()).then_some(sig)
            }
            if signature(&self.modules[i]).is_some_and(|old| Some(old) == signature(&module)) {
                let positions: HashMap<Sym, usize> = module
                    .functions()
                    .iter()
                    .enumerate()
                    .map(|(fi, f)| (f.name_sym(), fi))
                    .collect();
                for (name, (mi, fi)) in self.index.iter_mut() {
                    if *mi == i {
                        *fi = positions[name];
                    }
                }
                self.modules[i] = module;
                return Ok(());
            }
        }

        let rollback = match position {
            Some(i) => Some((i, std::mem::replace(&mut self.modules[i], module))),
            None => {
                self.modules.push(module);
                None
            }
        };
        match self.reindex() {
            Ok(()) => Ok(()),
            Err(e) => {
                match rollback {
                    Some((i, previous)) => self.modules[i] = previous,
                    None => {
                        self.modules.pop();
                    }
                }
                self.reindex().expect("previous state was consistent");
                Err(e)
            }
        }
    }

    /// Unlinks the module named `name`, if present, and rebuilds the
    /// symbol index; weak definitions shadowed by the removed module
    /// become canonical again. Returns whether a module was removed.
    pub fn remove_module(&mut self, name: &str) -> bool {
        match self.modules.iter().position(|m| m.name == name) {
            Some(i) => {
                self.modules.remove(i);
                self.reindex().expect("removing a module cannot introduce duplicates");
                true
            }
            None => false,
        }
    }

    /// Rebuilds `index` from `modules` in link order, applying the same
    /// weak-symbol resolution as [`Program::link`].
    fn reindex(&mut self) -> Result<(), ProgramError> {
        let mut index: HashMap<Sym, (usize, usize)> = HashMap::new();
        for (mod_idx, module) in self.modules.iter().enumerate() {
            for (fn_idx, func) in module.functions().iter().enumerate() {
                match index.get(&func.name_sym()) {
                    None => {
                        index.insert(func.name_sym(), (mod_idx, fn_idx));
                    }
                    Some(&(mi, fi)) => {
                        let existing = &self.modules[mi].functions[fi];
                        match (existing.weak, func.weak) {
                            (true, false) => {
                                index.insert(func.name_sym(), (mod_idx, fn_idx));
                            }
                            (_, true) => {}
                            (false, false) => {
                                return Err(ProgramError::DuplicateFunction(
                                    func.name().to_owned(),
                                ));
                            }
                        }
                    }
                }
            }
        }
        self.index = index;
        Ok(())
    }

    /// The linked modules, in link order.
    #[must_use]
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Looks up the canonical definition of `name` (after weak-symbol
    /// resolution). Never grows the intern table for unknown names.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.function_sym(Sym::lookup(name)?)
    }

    /// Looks up the canonical definition by interned handle (the
    /// allocation- and hash-free flavor of [`Program::function`]).
    #[must_use]
    pub fn function_sym(&self, name: Sym) -> Option<&Function> {
        self.index.get(&name).map(|&(mi, fi)| &self.modules[mi].functions[fi])
    }

    /// Iterates over the canonical function definitions in a deterministic
    /// order (sorted by name).
    pub fn functions(&self) -> Vec<&Function> {
        // Resolve each name once, not twice per comparison; index keys
        // are unique, so the unstable sort is deterministic.
        let mut entries: Vec<(&'static str, (usize, usize))> =
            self.index.iter().map(|(name, &at)| (name.as_str(), at)).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.into_iter().map(|(_, (mi, fi))| &self.modules[mi].functions[fi]).collect()
    }

    /// Number of canonical function definitions.
    #[must_use]
    pub fn function_count(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FunctionBuilder;

    fn func(name: &str, weak: bool) -> Function {
        let mut b = FunctionBuilder::new(name, Vec::<String>::new());
        b.set_weak(weak);
        b.ret_void();
        b.finish().unwrap()
    }

    fn caller(name: &str, callee: &str) -> Function {
        let mut b = FunctionBuilder::new(name, Vec::<String>::new());
        b.call(callee, []);
        b.ret_void();
        b.finish().unwrap()
    }

    #[test]
    fn strong_duplicate_is_error() {
        let mut m1 = Module::new("a.ril");
        m1.push_function(func("f", false));
        let mut m2 = Module::new("b.ril");
        m2.push_function(func("f", false));
        let mut p = Program::new();
        p.link(m1).unwrap();
        assert_eq!(p.link(m2), Err(ProgramError::DuplicateFunction("f".into())));
    }

    #[test]
    fn weak_symbols_merge() {
        let mut m1 = Module::new("a.ril");
        m1.push_function(func("f", true));
        let mut m2 = Module::new("b.ril");
        m2.push_function(func("f", true));
        let mut p = Program::new();
        p.link(m1).unwrap();
        p.link(m2).unwrap();
        assert_eq!(p.function_count(), 1);
        assert!(p.function("f").unwrap().weak);
    }

    #[test]
    fn strong_definition_overrides_weak() {
        let mut m1 = Module::new("a.ril");
        m1.push_function(func("f", true));
        let mut m2 = Module::new("b.ril");
        m2.push_function(func("f", false));
        let mut p = Program::new();
        p.link(m1).unwrap();
        p.link(m2).unwrap();
        assert!(!p.function("f").unwrap().weak);
    }

    #[test]
    fn undefined_references() {
        let mut m = Module::new("a.ril");
        m.push_function(caller("f", "g"));
        m.push_function(caller("g", "pm_runtime_get"));
        assert_eq!(m.undefined_references(), vec!["pm_runtime_get"]);
    }

    #[test]
    fn functions_listed_deterministically() {
        let mut m = Module::new("a.ril");
        m.push_function(func("zeta", false));
        m.push_function(func("alpha", false));
        let p = Program::from_module(m).unwrap();
        let names: Vec<&str> = p.functions().iter().map(|f| f.name()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn replace_module_swaps_definitions_in_place() {
        let mut m1 = Module::new("a.ril");
        m1.push_function(func("f", false));
        let mut m2 = Module::new("b.ril");
        m2.push_function(func("g", false));
        let mut p = Program::new();
        p.link(m1).unwrap();
        p.link(m2).unwrap();

        // Same module name: the new definitions replace the old ones.
        let mut m1b = Module::new("a.ril");
        m1b.push_function(func("f2", false));
        p.replace_module(m1b).unwrap();
        assert!(p.function("f").is_none());
        assert!(p.function("f2").is_some());
        assert!(p.function("g").is_some());
        assert_eq!(p.modules().len(), 2);

        // Unknown module name: linked fresh.
        let mut m3 = Module::new("c.ril");
        m3.push_function(func("h", false));
        p.replace_module(m3).unwrap();
        assert_eq!(p.modules().len(), 3);
        assert_eq!(p.function_count(), 3);

        // And removal unlinks exactly that module's definitions.
        assert!(p.remove_module("c.ril"));
        assert!(!p.remove_module("c.ril"));
        assert!(p.function("h").is_none());
        assert_eq!(p.function_count(), 2);
    }

    #[test]
    fn replace_module_same_signature_fixes_up_positions() {
        // Same (name, weakness) signature but reordered functions: the
        // fast path must repair the intra-module index positions.
        let mut m1 = Module::new("a.ril");
        m1.push_function(caller("f", "x"));
        m1.push_function(caller("g", "x"));
        let mut p = Program::from_module(m1).unwrap();

        let mut m1b = Module::new("a.ril");
        m1b.push_function(caller("g", "y"));
        m1b.push_function(caller("f", "z"));
        p.replace_module(m1b).unwrap();
        assert_eq!(p.function_count(), 2);
        let callees = |n: &str| p.function(n).unwrap().callees().collect::<Vec<_>>();
        assert_eq!(callees("f"), vec!["z"]);
        assert_eq!(callees("g"), vec!["y"]);
    }

    #[test]
    fn replace_module_rolls_back_on_duplicate() {
        let mut m1 = Module::new("a.ril");
        m1.push_function(func("f", false));
        let mut m2 = Module::new("b.ril");
        m2.push_function(func("g", false));
        let mut p = Program::new();
        p.link(m1).unwrap();
        p.link(m2).unwrap();

        // Replacement would redefine `g` strongly — rejected, untouched.
        let mut bad = Module::new("a.ril");
        bad.push_function(func("g", false));
        assert_eq!(
            p.replace_module(bad),
            Err(ProgramError::DuplicateFunction("g".into()))
        );
        assert!(p.function("f").is_some());
        assert_eq!(p.function_count(), 2);
    }

    #[test]
    fn module_lookup_and_externs() {
        let mut m = Module::new("a.ril");
        m.push_function(func("f", false));
        m.push_extern("pm_runtime_get");
        assert!(m.function("f").is_some());
        assert!(m.function("g").is_none());
        assert_eq!(m.externs(), &["pm_runtime_get".to_owned()]);
    }
}
