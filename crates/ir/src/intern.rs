//! The global name interner behind every identifier in the IR.
//!
//! Variable, function, field, parameter, and module names form a small,
//! heavily repeated vocabulary at corpus scale (a 270k-function kernel
//! corpus has a few hundred thousand *unique* names but tens of millions
//! of *occurrences*). Storing a [`Sym`] — a 4-byte handle into a global,
//! append-only string table — instead of an owned `String` (24 bytes of
//! header plus a heap block per occurrence) removes both the allocator
//! traffic on every IR construction and the string hashing/compares on
//! every map operation keyed by a name.
//!
//! Design points:
//!
//! * **Append-only, deduplicated.** Interning the same text twice returns
//!   the same handle, so `Sym` equality is a `u32` compare. Strings are
//!   leaked into the table and live for the process lifetime — the right
//!   trade for an analyzer whose name vocabulary is bounded by its input
//!   corpus (and whose daemon form wants names immortal anyway, so
//!   resident summaries, caches, and reports can share them).
//! * **Resolution takes no lock.** The text → id map sits behind a
//!   `RwLock`, but [`Sym::as_str`] reads a separate append-only id → text
//!   table of `OnceLock` slots. A handle exists only after its slot is set
//!   under the insert lock, so resolving one never waits, even while
//!   other threads intern.
//! * **Ordering is *string* ordering.** `Ord` compares resolved text, not
//!   handle ids. Every deterministic order in the pipeline (sorted
//!   function lists, `BTreeMap`-backed summary databases, report
//!   ordering) predates interning and is part of the byte-identity
//!   contract, so it must not shift with intern order.
//! * **Hashing is *handle* hashing.** In-memory maps keyed by `Sym` hash
//!   4 bytes instead of the string. Anything *persisted* must therefore
//!   never hash a `Sym` through `std::hash` — the content-addressed cache
//!   keys resolve to text explicitly (see `rid-core`'s `cache` module).
//! * **Serde is *string* serde.** A `Sym` serializes as its text, so every
//!   JSON artifact (summaries, caches, reports) is byte-identical to the
//!   pre-interning formats, and deserialization re-interns.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// The text → id map. First-time interning takes the write lock;
/// [`Sym::lookup`] and the fast path of [`Sym::new`] take the read lock.
/// Resolving a handle never touches it (see [`SEGMENTS`]).
fn interner() -> &'static RwLock<HashMap<&'static str, u32>> {
    static INTERNER: OnceLock<RwLock<HashMap<&'static str, u32>>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(HashMap::with_capacity(1024)))
}

/// One resolve-table slot: the text of one id, set exactly once.
type Slot = OnceLock<&'static str>;

/// log2 of the first segment's slot count.
const SEG_BASE_BITS: u32 = 10;

/// Segments needed to address every `u32` id (segment `k` holds
/// `2^(SEG_BASE_BITS + k)` slots).
const SEG_COUNT: usize = (u32::BITS - SEG_BASE_BITS + 1) as usize;

/// The id → text resolve table: append-only segments of doubling size,
/// allocated on first use. A segment never moves once allocated, so the
/// table grows without copying or blocking readers ([`Sym::new`] holds
/// the publication rule).
static SEGMENTS: [OnceLock<Box<[Slot]>>; SEG_COUNT] = [const { OnceLock::new() }; SEG_COUNT];

/// The `(segment, offset)` of `id`: ids `[2^B·(2^k − 1), 2^B·(2^(k+1) − 1))`
/// live in segment `k`, with `B = SEG_BASE_BITS`.
fn locate(id: u32) -> (usize, usize) {
    let shifted = u64::from(id) + (1 << SEG_BASE_BITS);
    let top = u64::BITS - 1 - shifted.leading_zeros();
    ((top - SEG_BASE_BITS) as usize, (shifted - (1 << top)) as usize)
}

/// Number of slots in segment `seg`.
fn segment_len(seg: usize) -> usize {
    1 << (SEG_BASE_BITS as usize + seg)
}

/// An interned string handle: 4 bytes, `Copy`, O(1) equality.
///
/// Obtain one with [`Sym::new`] (or the `From` impls), resolve it with
/// [`Sym::as_str`] (or via `Deref`, so `&Sym` coerces wherever `&str` is
/// expected through method calls).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Sym(u32);

impl Sym {
    /// Interns `text` and returns its handle. Idempotent: equal text maps
    /// to equal handles for the lifetime of the process.
    #[must_use]
    pub fn new(text: &str) -> Sym {
        if let Some(sym) = Sym::lookup(text) {
            return sym;
        }
        let mut map = interner().write().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&id) = map.get(text) {
            return Sym(id);
        }
        let id = u32::try_from(map.len()).expect("interner overflow (> 4G names)");
        let leaked: &'static str = Box::leak(text.to_owned().into_boxed_str());
        // Publication rule: the slot is set before the id reaches the
        // map or the caller, so no handle can outrun its text.
        let (seg, offset) = locate(id);
        let segment =
            SEGMENTS[seg].get_or_init(|| (0..segment_len(seg)).map(|_| Slot::new()).collect());
        segment[offset].set(leaked).expect("each id is handed out once");
        map.insert(leaked, id);
        Sym(id)
    }

    /// The handle for `text` **if it was already interned**; `None`
    /// otherwise. Lookup paths (e.g. "does the program define a function
    /// of this name?") use this so queries for unknown names never grow
    /// the table.
    #[must_use]
    pub fn lookup(text: &str) -> Option<Sym> {
        let map = interner().read().unwrap_or_else(std::sync::PoisonError::into_inner);
        map.get(text).map(|&id| Sym(id))
    }

    /// Resolves the handle to its text. O(1) and lock-free: two
    /// `OnceLock` reads in the resolve table. The returned reference is
    /// `'static` — interned strings are never freed.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        let (seg, offset) = locate(self.0);
        SEGMENTS[seg]
            .get()
            .and_then(|segment| segment[offset].get())
            .copied()
            .expect("a Sym exists only after its slot is set")
    }

    /// The raw handle id. Only meaningful within this process; never
    /// persist it.
    #[must_use]
    pub fn id(self) -> u32 {
        self.0
    }

    /// Whether the interned text is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.as_str().is_empty()
    }

    /// Number of distinct interned strings in the process-global table.
    #[must_use]
    pub fn interned_count() -> usize {
        interner().read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Total bytes of interned string text (excluding table overhead),
    /// for memory-footprint accounting.
    #[must_use]
    pub fn interned_bytes() -> usize {
        interner()
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .keys()
            .map(|s| s.len())
            .sum()
    }

    /// Heap bytes of the id → text resolve table as allocated: every
    /// segment in use, its unfilled slots included.
    #[must_use]
    pub fn resolve_table_bytes() -> usize {
        SEGMENTS
            .iter()
            .filter_map(OnceLock::get)
            .map(|segment| std::mem::size_of_val(&**segment))
            .sum()
    }
}

impl Default for Sym {
    fn default() -> Sym {
        Sym::new("")
    }
}

// Handle hashing: 4 bytes instead of the text. See the module docs for
// why persisted hashes must not go through this impl.
impl std::hash::Hash for Sym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

// String ordering, not id ordering: deterministic orders must not shift
// with intern order (ids depend on first-touch order, which differs
// between e.g. a cold parse and a snapshot restore).
impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::ops::Deref for Sym {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `String`-compatible: quoted content, no wrapper name, so debug
        // renderings (which feed some golden tests) do not shift.
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Sym {
    fn from(text: &str) -> Sym {
        Sym::new(text)
    }
}

impl From<String> for Sym {
    fn from(text: String) -> Sym {
        Sym::new(&text)
    }
}

impl From<&String> for Sym {
    fn from(text: &String) -> Sym {
        Sym::new(text)
    }
}

impl From<&Sym> for Sym {
    fn from(sym: &Sym) -> Sym {
        *sym
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Sym {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Sym> for str {
    fn eq(&self, other: &Sym) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Sym> for String {
    fn eq(&self, other: &Sym) -> bool {
        self.as_str() == other.as_str()
    }
}

// Serialized as the resolved text: every persisted artifact keeps its
// pre-interning byte layout, and handles never leak across processes.
impl serde::Serialize for Sym {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_str().serialize(serializer)
    }
}

impl<'de> serde::Deserialize<'de> for Sym {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(|s| Sym::new(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let a = Sym::new("pm_runtime_get");
        let b = Sym::new("pm_runtime_get");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "pm_runtime_get");
    }

    #[test]
    fn ordering_is_string_ordering() {
        // Intern in reverse lexicographic order: ids ascend but string
        // order must win.
        let z = Sym::new("zzz-order-probe");
        let a = Sym::new("aaa-order-probe");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn string_compatible_debug_and_eq() {
        let s = Sym::new("dev");
        assert_eq!(format!("{s:?}"), "\"dev\"");
        assert_eq!(format!("{s}"), "dev");
        assert!(s == "dev");
        let owned = String::from("dev");
        assert!(s == owned);
        assert!("dev" == s);
        assert_eq!(&*s, "dev");
    }

    #[test]
    fn serde_round_trips_as_text() {
        let s = Sym::new("rc_field");
        let v = serde::__private::to_value_err::<_, serde::SimpleError>(&s).unwrap();
        assert_eq!(v, serde::Value::Str("rc_field".to_owned()));
        let back: Sym =
            serde::__private::from_value_err::<Sym, serde::SimpleError>(v).unwrap();
        assert_eq!(back, s);
    }

    /// First id of segment `seg`.
    fn segment_start(seg: usize) -> u64 {
        (1u64 << (SEG_BASE_BITS as usize + seg)) - (1 << SEG_BASE_BITS)
    }

    #[test]
    fn segment_arithmetic_at_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        assert_eq!(locate(7167), (2, 4095));
        assert_eq!(locate(7168), (3, 0));
        assert_eq!(locate(u32::MAX), (SEG_COUNT - 1, (u32::MAX - 0xFFFF_FC00) as usize));
        // Segments tile the id space: each ends where the next starts,
        // and the last one covers `u32::MAX`.
        for seg in 0..SEG_COUNT {
            let start = segment_start(seg);
            let end = start + segment_len(seg) as u64;
            assert_eq!(end, segment_start(seg + 1));
            if let Ok(first) = u32::try_from(start) {
                assert_eq!(locate(first), (seg, 0));
            }
            if let Ok(last) = u32::try_from(end - 1) {
                assert_eq!(locate(last), (seg, segment_len(seg) - 1));
            }
        }
        assert!(segment_start(SEG_COUNT) > u64::from(u32::MAX));
        assert!(segment_start(SEG_COUNT - 1) <= u64::from(u32::MAX));
    }
}
