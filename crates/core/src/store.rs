//! The RIDSS1 indexed summary-store container.
//!
//! The JSON form of a [`crate::cache::SummaryCache`] is a tree: loading
//! it parses and materializes *every* entry, even though a warm run only
//! ever touches the entries whose functions it re-analyzes. At corpus
//! scale that cold materialization dominates warm start-up. This module
//! replaces the tree with an **indexed container**: a small header, a
//! sorted offset index, and per-entry checksummed records. Opening a
//! store reads the header and index only; each entry is fetched with a
//! positioned read ([`std::os::unix::fs::FileExt::read_at`]-style, no
//! seeks, no shared cursor) and parsed the first time a probe actually
//! hits it. A daemon restore or a warm `--cache` load therefore costs
//! O(index) + O(entries hit), not O(entries stored).
//!
//! ## Container format
//!
//! All integers little-endian:
//!
//! ```text
//! "RIDSS1\n\0"                      8-byte magic/version
//! u32   schema length, schema bytes ([`crate::cache::CACHE_SCHEMA`])
//! u32   entry count
//! u64   index length in bytes
//! u128  FNV-1a-128 checksum of the index region
//! index region, per entry (sorted by function name, bytewise):
//!   u32   name length, name bytes (UTF-8)
//!   u128  content key (the merkle comp key the entry was computed under)
//!   u64   payload offset (absolute, from file start)
//!   u64   payload length
//!   u128  FNV-1a-128 checksum of the payload
//! payload region: concatenated per-entry records
//!   (each a JSON-serialized [`CacheEntry`], the same object shape as
//!    one value of the legacy JSON map)
//! ```
//!
//! The index checksum is verified at open; each payload checksum is
//! verified at first read. A torn or bit-flipped entry fails its own
//! probe loudly without poisoning the rest of the store.
//!
//! ## Pass-through writes
//!
//! Writing a store merges the resident (freshly computed) entries with
//! the unshadowed entries of the backing store being replaced — and the
//! latter are copied as **raw verified bytes**, never parsed. A warm run
//! that recomputes 3 functions out of 12k re-encodes 3 entries and
//! `memcpy`s the rest.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use crate::cache::{CacheEntry, Fnv128};

/// Version header of a RIDSS1 container; bump on layout changes.
pub const STORE_MAGIC: &[u8; 8] = b"RIDSS1\n\0";

/// One index record: everything needed to locate, validate, and key one
/// entry without touching its payload.
#[derive(Clone, Debug)]
struct IndexEntry {
    name: String,
    key: u128,
    offset: u64,
    len: u64,
    checksum: u128,
}

/// The byte source behind a store: an open file (positioned reads) or a
/// resident buffer (e.g. a snapshot section already in memory).
#[derive(Debug)]
enum Backing {
    File(fs::File),
    Mem(Vec<u8>),
}

impl Backing {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        match self {
            Backing::File(file) => std::os::unix::fs::FileExt::read_exact_at(file, buf, offset),
            Backing::Mem(bytes) => {
                let start = usize::try_from(offset)
                    .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "offset overflow"))?;
                let end = start.checked_add(buf.len()).filter(|&e| e <= bytes.len()).ok_or_else(
                    || io::Error::new(io::ErrorKind::UnexpectedEof, "record past end of store"),
                )?;
                buf.copy_from_slice(&bytes[start..end]);
                Ok(())
            }
        }
    }
}

/// An opened RIDSS1 container: the parsed index plus a byte source for
/// on-demand payload reads. Cheap to keep resident — the payloads stay
/// on disk (or in the snapshot section's bytes) until probed.
#[derive(Debug)]
pub struct SummaryStore {
    schema: String,
    backing: Backing,
    /// Sorted by name; probed by binary search.
    index: Vec<IndexEntry>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("summary store: {msg}"))
}

/// A little-endian cursor over the header/index bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| bad("truncated"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u128(&mut self) -> io::Result<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16 bytes")))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("non-UTF-8 name"))
    }
}

/// Byte length of the fixed pre-index header once the schema string is
/// known: magic + schema (length-prefixed) + count + index length +
/// index checksum.
fn header_len(schema: &str) -> u64 {
    (8 + 4 + schema.len() + 4 + 8 + 16) as u64
}

impl SummaryStore {
    /// Opens a store file, reading and verifying only the header and
    /// index. Payloads stay on disk until [`SummaryStore::read_entry`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error on unreadable files, foreign magic, or a
    /// corrupt index.
    pub fn open(path: &Path) -> io::Result<SummaryStore> {
        let file = fs::File::open(path)?;
        SummaryStore::parse(Backing::File(file))
    }

    /// Opens a store over resident bytes (e.g. a snapshot section),
    /// verifying the header and index. Entry payloads are decoded only
    /// when probed.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on foreign magic or a corrupt index.
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<SummaryStore> {
        SummaryStore::parse(Backing::Mem(bytes))
    }

    fn parse(backing: Backing) -> io::Result<SummaryStore> {
        let mut magic = [0u8; 8];
        backing.read_exact_at(&mut magic, 0).map_err(|_| bad("truncated header"))?;
        if &magic != STORE_MAGIC {
            return Err(bad("bad magic (not a RIDSS1 container)"));
        }
        let mut len4 = [0u8; 4];
        backing.read_exact_at(&mut len4, 8).map_err(|_| bad("truncated header"))?;
        let schema_len = u32::from_le_bytes(len4) as usize;
        if schema_len > 4096 {
            return Err(bad("implausible schema length"));
        }
        // Schema + count + index length + index checksum in one read.
        let mut rest = vec![0u8; schema_len + 4 + 8 + 16];
        backing.read_exact_at(&mut rest, 12).map_err(|_| bad("truncated header"))?;
        let mut c = Cursor { bytes: &rest, pos: 0 };
        let schema = String::from_utf8(c.take(schema_len)?.to_vec())
            .map_err(|_| bad("non-UTF-8 schema"))?;
        let count = c.u32()? as usize;
        let index_len = c.u64()?;
        let index_checksum = c.u128()?;

        let mut index_bytes =
            vec![
                0u8;
                usize::try_from(index_len).map_err(|_| bad("implausible index length"))?
            ];
        backing
            .read_exact_at(&mut index_bytes, header_len(&schema))
            .map_err(|_| bad("truncated index"))?;
        let mut h = Fnv128::new();
        h.write(&index_bytes);
        if h.finish() != index_checksum {
            return Err(bad("index checksum mismatch"));
        }

        let mut index = Vec::with_capacity(count);
        let mut c = Cursor { bytes: &index_bytes, pos: 0 };
        for _ in 0..count {
            let name = c.str()?;
            let key = c.u128()?;
            let offset = c.u64()?;
            let len = c.u64()?;
            let checksum = c.u128()?;
            if let Some(prev) = index.last() {
                let prev: &IndexEntry = prev;
                if prev.name.as_bytes() >= name.as_bytes() {
                    return Err(bad("index not sorted by name"));
                }
            }
            index.push(IndexEntry { name, key, offset, len, checksum });
        }
        if c.pos != index_bytes.len() {
            return Err(bad("trailing bytes in index"));
        }
        Ok(SummaryStore { schema, backing, index })
    }

    /// The schema tag the store was written under.
    #[must_use]
    pub fn schema(&self) -> &str {
        &self.schema
    }

    /// Number of entries in the store.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Entry names, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> + '_ {
        self.index.iter().map(|e| e.name.as_str())
    }

    /// The content key recorded for `name`, if present. Index-only: no
    /// payload is touched.
    #[must_use]
    pub fn key_of(&self, name: &str) -> Option<u128> {
        self.position(name).map(|i| self.index[i].key)
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.index.binary_search_by(|e| e.name.as_str().cmp(name)).ok()
    }

    /// Reads, verifies, and parses the entry for `name`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the payload cannot be read, fails its
    /// checksum, or does not parse.
    pub fn read_entry(&self, name: &str) -> io::Result<Option<CacheEntry>> {
        let Some(i) = self.position(name) else { return Ok(None) };
        let (_, payload) = self.read_raw(i)?;
        let entry: CacheEntry = serde_json::from_str(
            std::str::from_utf8(&payload).map_err(|_| bad("non-UTF-8 payload"))?,
        )
        .map_err(|e| bad(&format!("entry `{name}` does not parse: {e}")))?;
        Ok(Some(entry))
    }

    /// Reads and checksum-verifies the raw payload of index slot `i`,
    /// without parsing. The pass-through write path copies these bytes
    /// verbatim.
    fn read_raw(&self, i: usize) -> io::Result<(&IndexEntry, Vec<u8>)> {
        let entry = &self.index[i];
        let len = usize::try_from(entry.len).map_err(|_| bad("implausible entry length"))?;
        let mut payload = vec![0u8; len];
        self.backing
            .read_exact_at(&mut payload, entry.offset)
            .map_err(|_| bad("truncated entry payload"))?;
        let mut h = Fnv128::new();
        h.write(&payload);
        if h.finish() != entry.checksum {
            return Err(bad(&format!("entry `{}` checksum mismatch", entry.name)));
        }
        Ok((entry, payload))
    }
}

/// Serializes a store: `resident` entries (freshly computed or
/// materialized this process) merged with every `backing` entry whose
/// name is not shadowed by a resident one. Backing payloads are copied
/// as verified raw bytes — they are never parsed.
///
/// # Errors
///
/// Returns an I/O error if a resident entry cannot be serialized, a
/// backing payload fails verification, or an entry key is malformed.
pub fn write_store_bytes(
    schema: &str,
    resident: &BTreeMap<String, CacheEntry>,
    backing: Option<&SummaryStore>,
) -> io::Result<Vec<u8>> {
    // Assemble (name, key, payload) in sorted order: a classic two-way
    // merge of the resident map (already sorted) and the backing index
    // (sorted by construction), resident winning ties.
    let mut records: Vec<(&str, u128, Vec<u8>)> = Vec::new();
    let mut resident_iter = resident.iter().peekable();
    let mut backing_slots = match backing {
        Some(store) => (0..store.index.len()).peekable(),
        None => (0..0).peekable(),
    };
    loop {
        let from_resident = match (resident_iter.peek(), backing_slots.peek()) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((rname, _)), Some(&slot)) => {
                let bname = &backing.expect("slot implies backing").index[slot].name;
                if rname.as_str() == bname.as_str() {
                    backing_slots.next(); // shadowed: resident wins
                }
                rname.as_str() <= bname.as_str()
            }
        };
        if from_resident {
            let (name, entry) = resident_iter.next().expect("peeked");
            let key = crate::cache::parse_hex_key(&entry.key)
                .ok_or_else(|| bad(&format!("entry `{name}` has a malformed key")))?;
            let payload = serde_json::to_string(entry).map_err(|e| bad(&e.to_string()))?;
            records.push((name, key, payload.into_bytes()));
        } else {
            let slot = backing_slots.next().expect("peeked");
            let store = backing.expect("slot implies backing");
            let (entry, payload) = store.read_raw(slot)?;
            records.push((entry.name.as_str(), entry.key, payload));
        }
    }

    Ok(assemble_store(schema, &records))
}

/// Serializes sorted `(name, key, payload)` records into RIDSS1
/// container bytes: header, checksummed index, concatenated payloads.
fn assemble_store(schema: &str, records: &[(&str, u128, Vec<u8>)]) -> Vec<u8> {
    // Index region.
    let mut index = Vec::new();
    let mut offset = header_len(schema);
    // First pass sizes the index so payload offsets are absolute.
    for (name, _, payload) in records {
        offset += (4 + name.len() + 16 + 8 + 8 + 16) as u64;
        let _ = payload;
    }
    let mut payload_at = offset;
    for (name, key, payload) in records {
        index.extend_from_slice(&u32::try_from(name.len()).expect("name length").to_le_bytes());
        index.extend_from_slice(name.as_bytes());
        index.extend_from_slice(&key.to_le_bytes());
        index.extend_from_slice(&payload_at.to_le_bytes());
        index.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let mut h = Fnv128::new();
        h.write(payload);
        index.extend_from_slice(&h.finish().to_le_bytes());
        payload_at += payload.len() as u64;
    }

    let mut out = Vec::with_capacity(
        usize::try_from(payload_at).unwrap_or(index.len()) + STORE_MAGIC.len(),
    );
    out.extend_from_slice(STORE_MAGIC);
    out.extend_from_slice(&u32::try_from(schema.len()).expect("schema length").to_le_bytes());
    out.extend_from_slice(schema.as_bytes());
    out.extend_from_slice(&u32::try_from(records.len()).expect("entry count").to_le_bytes());
    out.extend_from_slice(&(index.len() as u64).to_le_bytes());
    let mut h = Fnv128::new();
    h.write(&index);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out.extend_from_slice(&index);
    for (_, _, payload) in records {
        out.extend_from_slice(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::hex_key;
    use crate::summary::Summary;

    fn entry(func: &str, key: u128) -> CacheEntry {
        CacheEntry { key: hex_key(key), summary: Summary::default_for(func), reports: Vec::new() }
    }

    fn store_with(entries: &[(&str, u128)]) -> SummaryStore {
        let resident: BTreeMap<String, CacheEntry> =
            entries.iter().map(|&(n, k)| (n.to_owned(), entry(n, k))).collect();
        let bytes = write_store_bytes("test-schema/v1", &resident, None).unwrap();
        SummaryStore::from_bytes(bytes).unwrap()
    }

    #[test]
    fn round_trips_entries_on_demand() {
        let store = store_with(&[("alpha", 1), ("beta", 2), ("gamma", 3)]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.schema(), "test-schema/v1");
        assert_eq!(store.key_of("beta"), Some(2));
        assert_eq!(store.key_of("delta"), None);
        let e = store.read_entry("gamma").unwrap().unwrap();
        assert_eq!(e.key, hex_key(3));
        assert_eq!(e.summary.func, "gamma");
        assert!(store.read_entry("nope").unwrap().is_none());
    }

    #[test]
    fn pass_through_merges_and_shadows() {
        let old = store_with(&[("a", 1), ("b", 2), ("c", 3)]);
        let mut resident = BTreeMap::new();
        resident.insert("b".to_owned(), entry("b", 20)); // shadows
        resident.insert("d".to_owned(), entry("d", 4)); // new
        let bytes = write_store_bytes("test-schema/v1", &resident, Some(&old)).unwrap();
        let merged = SummaryStore::from_bytes(bytes).unwrap();
        assert_eq!(merged.names().collect::<Vec<_>>(), vec!["a", "b", "c", "d"]);
        assert_eq!(merged.key_of("b"), Some(20));
        assert_eq!(merged.key_of("a"), Some(1));
        let b = merged.read_entry("b").unwrap().unwrap();
        assert_eq!(b.key, hex_key(20));
    }

    #[test]
    fn corrupt_index_fails_open() {
        let store = store_with(&[("a", 1)]);
        let Backing::Mem(mut bytes) = store.backing else { panic!("mem-backed") };
        // Flip a byte inside the index region (just past the header).
        let at = usize::try_from(header_len("test-schema/v1")).unwrap() + 8;
        bytes[at] ^= 0xff;
        assert!(SummaryStore::from_bytes(bytes).is_err());
    }

    #[test]
    fn corrupt_payload_fails_only_that_entry() {
        let resident: BTreeMap<String, CacheEntry> =
            [("a", 1u128), ("b", 2)].iter().map(|&(n, k)| (n.to_owned(), entry(n, k))).collect();
        let bytes = write_store_bytes("s", &resident, None).unwrap();
        // Corrupt the final byte (inside entry b's payload).
        let mut bytes = bytes;
        let at = bytes.len() - 2;
        bytes[at] ^= 0xff;
        let store = SummaryStore::from_bytes(bytes).unwrap();
        assert!(store.read_entry("a").unwrap().is_some());
        assert!(store.read_entry("b").is_err());
    }

    #[test]
    fn rejects_foreign_magic() {
        assert!(SummaryStore::from_bytes(b"NOTASTORE".to_vec()).is_err());
        assert!(SummaryStore::from_bytes(Vec::new()).is_err());
    }
}
