//! Lookups never grow the intern table.
//!
//! Both tests compare `Sym::interned_count()` before and after a lookup,
//! so nothing else may intern in between. They run in a test binary of
//! their own, one at a time: in `rid-ir`'s unit-test process, other tests
//! intern names on parallel threads.

use std::sync::{Mutex, PoisonError};

use rid_ir::{FunctionBuilder, Module, Program, Sym};

/// Held for each test's whole body.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn lookup_never_inserts() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let before = Sym::interned_count();
    assert!(Sym::lookup("surely-never-interned-a8f3e1").is_none());
    assert_eq!(Sym::interned_count(), before);
    let s = Sym::new("lookup-roundtrip-x1");
    assert_eq!(Sym::lookup("lookup-roundtrip-x1"), Some(s));
}

#[test]
fn lookup_of_unknown_name_does_not_intern() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut b = FunctionBuilder::new("known_fn_lookup_probe", Vec::<String>::new());
    b.ret_void();
    let mut m = Module::new("a.ril");
    m.push_function(b.finish().unwrap());
    let p = Program::from_module(m).unwrap();
    let before = Sym::interned_count();
    assert!(p.function("never-defined-name-93ab7c").is_none());
    assert_eq!(Sym::interned_count(), before);
    assert!(p.function("known_fn_lookup_probe").is_some());
}
