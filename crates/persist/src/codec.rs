//! The compact binary OEM codec — no serde, no external crates.
//!
//! Two encodings share one vocabulary of primitives (LEB128 varints,
//! zigzag integers, length-prefixed strings):
//!
//! * **store** — the whole arena in *canonical* form: a label table in
//!   first-use order, every object in oid order (edges as
//!   `(label-index, target-oid)` pairs), and the named roots in name
//!   order. Canonical means `encode(decode(encode(s))) == encode(s)`,
//!   which is what lets tests assert byte-identical recovery.
//! * **fragment** — one rooted subgraph with local node ids in
//!   deterministic preorder (root is node 0), used inside journal
//!   records. Cycles and sharing survive because nodes are allocated
//!   before edges are wired.
//!
//! Every read is bounds-checked; corrupt input yields
//! [`PersistError::Codec`], never a panic or an oversized allocation.

use std::collections::HashMap;

use annoda_oem::{AtomicValue, ObjectKind, OemStore, Oid};

use crate::error::PersistError;

const STORE_MAGIC: &[u8; 4] = b"AOEM";
const STORE_VERSION: u8 = 1;

/// Hard cap on any single length field, so garbage cannot ask for a
/// multi-gigabyte allocation.
const MAX_LEN: u64 = 1 << 30;

// ---------------------------------------------------------------------
// primitives

/// Appends `v` as an LEB128 varint.
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `s` as a length-prefixed UTF-8 string.
pub fn write_string(buf: &mut Vec<u8>, s: &str) {
    write_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends an [`AtomicValue`] as a tag byte plus payload.
pub fn write_value(buf: &mut Vec<u8>, value: &AtomicValue) {
    match value {
        AtomicValue::Int(v) => {
            buf.push(0);
            write_varint(buf, zigzag(*v));
        }
        AtomicValue::Real(v) => {
            buf.push(1);
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        AtomicValue::Str(s) => {
            buf.push(2);
            write_string(buf, s);
        }
        AtomicValue::Bool(b) => {
            buf.push(3);
            buf.push(u8::from(*b));
        }
        AtomicValue::Url(s) => {
            buf.push(4);
            write_string(buf, s);
        }
        AtomicValue::Gif(bytes) => {
            buf.push(5);
            write_varint(buf, bytes.len() as u64);
            buf.extend_from_slice(bytes);
        }
    }
}

/// A bounds-checked cursor over encoded bytes.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading `bytes` from the beginning.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// Reads one byte.
    pub fn byte(&mut self) -> Result<u8, PersistError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| PersistError::codec("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads the next `n` bytes as a slice.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| PersistError::codec("length field exceeds input"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads an LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, PersistError> {
        let mut v: u64 = 0;
        for shift in (0..).step_by(7) {
            if shift >= 64 {
                return Err(PersistError::codec("varint longer than 64 bits"));
            }
            let byte = self.byte()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        unreachable!()
    }

    /// Reads a varint capped at the codec's sanity limit.
    pub fn len_field(&mut self) -> Result<usize, PersistError> {
        let v = self.varint()?;
        if v > MAX_LEN {
            return Err(PersistError::codec(format!("implausible length {v}")));
        }
        Ok(v as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, PersistError> {
        let len = self.len_field()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::codec("invalid UTF-8"))
    }

    /// Reads an [`AtomicValue`].
    pub fn value(&mut self) -> Result<AtomicValue, PersistError> {
        Ok(match self.byte()? {
            0 => AtomicValue::Int(unzigzag(self.varint()?)),
            1 => {
                let bytes: [u8; 8] = self.take(8)?.try_into().expect("take(8) is 8 bytes");
                AtomicValue::Real(f64::from_bits(u64::from_le_bytes(bytes)))
            }
            2 => AtomicValue::Str(self.string()?),
            3 => AtomicValue::Bool(self.byte()? != 0),
            4 => AtomicValue::Url(self.string()?),
            5 => {
                let len = self.len_field()?;
                AtomicValue::Gif(self.take(len)?.to_vec())
            }
            tag => return Err(PersistError::codec(format!("unknown value tag {tag}"))),
        })
    }
}

// ---------------------------------------------------------------------
// whole-store encoding

/// The canonical label order: first use by any edge, objects scanned in
/// oid order. Labels never referenced by an edge do not participate in
/// the encoding (they carry no information about the graph).
fn canonical_labels(store: &OemStore) -> (Vec<String>, HashMap<String, usize>) {
    let mut order = Vec::new();
    let mut index = HashMap::new();
    for oid in store.oids() {
        for edge in store.edges_of(oid) {
            let name = store.label_name(edge.label);
            if !index.contains_key(name) {
                index.insert(name.to_string(), order.len());
                order.push(name.to_string());
            }
        }
    }
    (order, index)
}

/// Encodes the whole store in canonical binary form.
pub fn encode_store(store: &OemStore) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(STORE_MAGIC);
    buf.push(STORE_VERSION);
    let (labels, label_index) = canonical_labels(store);
    write_varint(&mut buf, labels.len() as u64);
    for label in &labels {
        write_string(&mut buf, label);
    }
    write_varint(&mut buf, store.len() as u64);
    for oid in store.oids() {
        match store.get(oid).expect("oids() yields live oids").kind() {
            ObjectKind::Atomic(value) => {
                buf.push(0);
                write_value(&mut buf, value);
            }
            ObjectKind::Complex(edges) => {
                buf.push(1);
                write_varint(&mut buf, edges.len() as u64);
                for edge in edges {
                    let idx = label_index[store.label_name(edge.label)];
                    write_varint(&mut buf, idx as u64);
                    write_varint(&mut buf, edge.target.index() as u64);
                }
            }
        }
    }
    let names: Vec<(&str, Oid)> = store.names().collect();
    write_varint(&mut buf, names.len() as u64);
    for (name, oid) in names {
        write_string(&mut buf, name);
        write_varint(&mut buf, oid.index() as u64);
    }
    buf
}

/// Decodes a store previously written by [`encode_store`]. The result
/// re-encodes to the same bytes (labels are re-interned in canonical
/// order).
pub fn decode_store(bytes: &[u8]) -> Result<OemStore, PersistError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != STORE_MAGIC {
        return Err(PersistError::codec("bad store magic"));
    }
    let version = r.byte()?;
    if version != STORE_VERSION {
        return Err(PersistError::codec(format!(
            "unsupported store version {version}"
        )));
    }
    let n_labels = r.len_field()?;
    let mut labels = Vec::with_capacity(n_labels.min(1024));
    for _ in 0..n_labels {
        labels.push(r.string()?);
    }
    let n_objects = r.len_field()?;
    // Parse first, allocate second, wire third: `add_edge` demands a
    // live target, and forward references are routine.
    enum Parsed {
        Atomic(AtomicValue),
        Complex(Vec<(usize, usize)>),
    }
    let mut parsed = Vec::with_capacity(n_objects.min(1024));
    for _ in 0..n_objects {
        parsed.push(match r.byte()? {
            0 => Parsed::Atomic(r.value()?),
            1 => {
                let n_edges = r.len_field()?;
                let mut edges = Vec::with_capacity(n_edges.min(1024));
                for _ in 0..n_edges {
                    let label = r.varint()? as usize;
                    let target = r.varint()? as usize;
                    if label >= n_labels {
                        return Err(PersistError::codec(format!(
                            "label index {label} out of range"
                        )));
                    }
                    edges.push((label, target));
                }
                Parsed::Complex(edges)
            }
            tag => return Err(PersistError::codec(format!("unknown object tag {tag}"))),
        });
    }
    let mut store = OemStore::new();
    // Intern labels up front so the interner order matches canonical
    // order (making re-encoding byte-identical).
    for label in &labels {
        store.intern_label(label);
    }
    for p in &parsed {
        match p {
            Parsed::Atomic(v) => {
                store.new_atomic(v.clone());
            }
            Parsed::Complex(_) => {
                store.new_complex();
            }
        }
    }
    for (i, p) in parsed.iter().enumerate() {
        if let Parsed::Complex(edges) = p {
            for &(label, target) in edges {
                if target >= n_objects {
                    return Err(PersistError::codec(format!(
                        "edge target {target} out of range"
                    )));
                }
                store.add_edge(Oid::from_index(i), &labels[label], Oid::from_index(target))?;
            }
        }
    }
    let n_names = r.len_field()?;
    for _ in 0..n_names {
        let name = r.string()?;
        let oid = r.varint()? as usize;
        if oid >= n_objects {
            return Err(PersistError::codec(format!(
                "named root {oid} out of range"
            )));
        }
        store.set_name_overwrite(&name, Oid::from_index(oid))?;
    }
    Ok(store)
}

// ---------------------------------------------------------------------
// fragment encoding

/// Deterministic preorder over the subgraph under `root`: discovery
/// order with edges walked in list order; every node gets a local id,
/// the root is local 0.
fn fragment_order(store: &OemStore, root: Oid) -> (Vec<Oid>, HashMap<Oid, usize>) {
    let mut order = Vec::new();
    let mut local = HashMap::new();
    let mut stack = vec![root];
    while let Some(oid) = stack.pop() {
        if local.contains_key(&oid) {
            continue;
        }
        local.insert(oid, order.len());
        order.push(oid);
        // Reverse push so pop order follows edge order.
        for edge in store.edges_of(oid).iter().rev() {
            stack.push(edge.target);
        }
    }
    (order, local)
}

/// Encodes the subgraph under `root` with local node ids (root = 0).
pub fn encode_fragment(store: &OemStore, root: Oid) -> Vec<u8> {
    let (order, local) = fragment_order(store, root);
    let mut labels: Vec<String> = Vec::new();
    let mut label_index: HashMap<String, usize> = HashMap::new();
    for &oid in &order {
        for edge in store.edges_of(oid) {
            let name = store.label_name(edge.label);
            if !label_index.contains_key(name) {
                label_index.insert(name.to_string(), labels.len());
                labels.push(name.to_string());
            }
        }
    }
    let mut buf = Vec::new();
    write_varint(&mut buf, labels.len() as u64);
    for label in &labels {
        write_string(&mut buf, label);
    }
    write_varint(&mut buf, order.len() as u64);
    for &oid in &order {
        match store.get(oid).expect("fragment nodes are live").kind() {
            ObjectKind::Atomic(value) => {
                buf.push(0);
                write_value(&mut buf, value);
            }
            ObjectKind::Complex(edges) => {
                buf.push(1);
                write_varint(&mut buf, edges.len() as u64);
                for edge in edges {
                    let idx = label_index[store.label_name(edge.label)];
                    write_varint(&mut buf, idx as u64);
                    write_varint(&mut buf, local[&edge.target] as u64);
                }
            }
        }
    }
    buf
}

/// Decodes a fragment into `store`, allocating fresh objects; returns
/// the oid of the fragment root. Consumes the whole reader.
pub(crate) fn decode_fragment_reader(
    store: &mut OemStore,
    r: &mut Reader<'_>,
) -> Result<Oid, PersistError> {
    let n_labels = r.len_field()?;
    let mut labels = Vec::with_capacity(n_labels.min(1024));
    for _ in 0..n_labels {
        labels.push(r.string()?);
    }
    let n_nodes = r.len_field()?;
    if n_nodes == 0 {
        return Err(PersistError::codec("fragment with no nodes"));
    }
    enum Parsed {
        Atomic(AtomicValue),
        Complex(Vec<(usize, usize)>),
    }
    let mut parsed = Vec::with_capacity(n_nodes.min(1024));
    for _ in 0..n_nodes {
        parsed.push(match r.byte()? {
            0 => Parsed::Atomic(r.value()?),
            1 => {
                let n_edges = r.len_field()?;
                let mut edges = Vec::with_capacity(n_edges.min(1024));
                for _ in 0..n_edges {
                    let label = r.varint()? as usize;
                    let target = r.varint()? as usize;
                    if label >= n_labels {
                        return Err(PersistError::codec(format!(
                            "label index {label} out of range"
                        )));
                    }
                    if target >= n_nodes {
                        return Err(PersistError::codec(format!(
                            "node id {target} out of range"
                        )));
                    }
                    edges.push((label, target));
                }
                Parsed::Complex(edges)
            }
            tag => return Err(PersistError::codec(format!("unknown node tag {tag}"))),
        });
    }
    let base = store.len();
    for p in &parsed {
        match p {
            Parsed::Atomic(v) => {
                store.new_atomic(v.clone());
            }
            Parsed::Complex(_) => {
                store.new_complex();
            }
        }
    }
    for (i, p) in parsed.iter().enumerate() {
        if let Parsed::Complex(edges) = p {
            for &(label, target) in edges {
                store.add_edge(
                    Oid::from_index(base + i),
                    &labels[label],
                    Oid::from_index(base + target),
                )?;
            }
        }
    }
    Ok(Oid::from_index(base))
}

/// Decodes a standalone fragment (as produced by [`encode_fragment`])
/// into `store`, returning the oid of the fragment root.
pub fn decode_fragment_into(store: &mut OemStore, bytes: &[u8]) -> Result<Oid, PersistError> {
    let mut r = Reader::new(bytes);
    let root = decode_fragment_reader(store, &mut r)?;
    if !r.is_empty() {
        return Err(PersistError::codec("trailing bytes after fragment"));
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use annoda_oem::graph::structural_eq;

    fn sample() -> OemStore {
        let mut db = OemStore::new();
        let root = db.new_complex();
        let g = db.add_complex_child(root, "Gene").unwrap();
        db.add_atomic_child(g, "Symbol", "TP53").unwrap();
        db.add_atomic_child(g, "Id", AtomicValue::Int(-7157))
            .unwrap();
        db.add_atomic_child(g, "Score", AtomicValue::Real(0.25))
            .unwrap();
        db.add_atomic_child(g, "Active", AtomicValue::Bool(true))
            .unwrap();
        db.add_atomic_child(g, "Link", AtomicValue::Url("http://x/".into()))
            .unwrap();
        db.add_atomic_child(g, "Img", AtomicValue::Gif(vec![1, 2, 3]))
            .unwrap();
        // Sharing and a cycle.
        db.add_edge(root, "Also", g).unwrap();
        db.add_edge(g, "Back", root).unwrap();
        db.set_name("R", root).unwrap();
        db.set_name("Alias", g).unwrap();
        db
    }

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            write_varint(&mut buf, v);
            assert_eq!(Reader::new(&buf).varint().unwrap(), v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn store_codec_is_canonical() {
        let db = sample();
        let bytes = encode_store(&db);
        let back = decode_store(&bytes).unwrap();
        assert_eq!(back.len(), db.len());
        let names: Vec<_> = db.names().map(|(n, _)| n.to_string()).collect();
        for name in &names {
            assert!(structural_eq(
                &db,
                db.named(name).unwrap(),
                &back,
                back.named(name).unwrap()
            ));
        }
        // Canonical: decoding and re-encoding is a byte-level fixpoint.
        assert_eq!(encode_store(&back), bytes);
    }

    #[test]
    fn empty_store_round_trips() {
        let db = OemStore::new();
        let bytes = encode_store(&db);
        let back = decode_store(&bytes).unwrap();
        assert!(back.is_empty());
        assert_eq!(encode_store(&back), bytes);
    }

    #[test]
    fn fragment_codec_preserves_cycles_and_sharing() {
        let db = sample();
        let root = db.named("R").unwrap();
        let bytes = encode_fragment(&db, root);
        let mut dst = OemStore::new();
        dst.new_atomic("padding"); // offset so local/global ids differ
        let copied = decode_fragment_into(&mut dst, &bytes).unwrap();
        assert!(structural_eq(&db, root, &dst, copied));
        // Sharing preserved: Gene child and Also target are one object.
        let gene = dst.child(copied, "Gene").unwrap();
        assert_eq!(dst.child(copied, "Also"), Some(gene));
        assert_eq!(dst.child(gene, "Back"), Some(copied));
    }

    #[test]
    fn corrupt_input_errors_instead_of_panicking() {
        let db = sample();
        let bytes = encode_store(&db);
        // Truncations and bit flips must never panic or over-allocate.
        for cut in 0..bytes.len() {
            let _ = decode_store(&bytes[..cut]);
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xff;
            let _ = decode_store(&flipped);
        }
        assert!(decode_store(b"NOPE").is_err());
        assert!(decode_fragment_into(&mut OemStore::new(), &[]).is_err());
    }
}
