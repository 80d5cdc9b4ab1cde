//! The `.pcsr` on-disk graph format: build once, map many.
//!
//! A topology is immutable once built, yet every benchmark ladder and
//! sweep used to rebuild it per process — at N = 2²⁰ the torus build is
//! ~63 ms against a ~2 ms run, and at N = 10⁸ an in-memory build would
//! dwarf everything else in the experiment. This module persists the
//! exact CSR arrays [`Graph`] computes into a versioned, little-endian,
//! checksummed file that [`MappedGraph`] opens by `mmap` in microseconds;
//! the mapped sections are served zero-copy as the same `&[u32]` /
//! `&[NodeId]` slices the owned representation exposes, so every kernel
//! downstream (borders, BFS, ranking) is bit-identical on either storage.
//!
//! # Layout (version 1, all integers little-endian)
//!
//! ```text
//! 0    magic            8 bytes  b"PCSRGRPH"
//! 8    version          u32      1
//! 12   flags            u32      bit 0: dense hub rows present
//! 16   n                u64      node count
//! 24   edge_count       u64      undirected edges (CSR holds 2·E entries)
//! 32   mask_words       u64      ⌈n/64⌉, the dense-row width
//! 40   offsets section  pos u64, len u64   (u32 entries, len = n + 1)
//! 56   csr section      pos u64, len u64   (u32 entries, len = 2·E)
//! 72   dense ids        pos u64, len u64   (u32 entries)
//! 88   dense words      pos u64, len u64   (u64 entries)
//! 104  reserved         zeros to byte 128
//! 128  sections, each starting at a 64-byte-aligned file offset
//! end-8  checksum       u64      FNV-1a over bytes [128, end-8)
//! ```
//!
//! Section positions are 64-byte aligned so a page-aligned mapping makes
//! every section slice-castable in place. The trailing checksum covers
//! all section bytes (including alignment padding); [`MappedGraph::open`]
//! validates the header and section geometry in O(1) and leaves the O(E)
//! checksum walk to [`MappedGraph::verify`], keeping open latency
//! independent of file size. Node labels are not persisted — the format
//! targets the generated experiment topologies, which are unlabeled.
//! The dense hub rows (one `⌈n/64⌉`-word neighbour bitmask per node of
//! degree ≥ `⌈n/64⌉`) are part of version 1: the writer emits them and
//! `open` validates their geometry, though no kernel reads them.
//!
//! # Streaming builds
//!
//! [`GraphStore::write_rows`] builds a file from a *row function* in two
//! passes (degree count, then placement), so a graph whose adjacency is
//! closed-form (torus, grid, ring, …) streams to disk through a small
//! buffer without ever materializing an O(E) edge list — the path that
//! takes the E-series to 10⁸ nodes.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::mmap::{as_node_ids, as_u32s, Mmap};
use crate::nodeset::words_for;
use crate::{Graph, NodeId};

/// File magic, byte 0.
pub(crate) const MAGIC: [u8; 8] = *b"PCSRGRPH";
/// Current format version.
pub(crate) const VERSION: u32 = 1;
/// Fixed header size; the first section starts here.
pub(crate) const HEADER_LEN: u64 = 128;
/// Section alignment, in bytes.
const ALIGN: u64 = 64;
/// `flags` bit 0: the dense hub-row sections are non-empty.
const FLAG_DENSE: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Errors opening, validating, or writing a `.pcsr` file.
///
/// Every malformed-input case is a diagnostic value, never a panic: a
/// truncated download or a stale file from a future version must fail
/// with an explanation the CLI can print.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `.pcsr` magic.
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// The version actually found.
        found: u32,
    },
    /// The file is shorter than its header claims.
    Truncated {
        /// What was being read when the file ran out.
        detail: String,
    },
    /// A section does not start on the required 64-byte boundary.
    Misaligned {
        /// Which section.
        section: &'static str,
        /// Its (misaligned) file position.
        pos: u64,
    },
    /// The trailing checksum does not match the section bytes.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the bytes actually present.
        found: u64,
    },
    /// Header fields contradict each other or the section contents.
    Inconsistent {
        /// Human-readable description of the contradiction.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic { found } => write!(
                f,
                "not a .pcsr file: magic {:02x?} (expected {:02x?})",
                found, MAGIC
            ),
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported .pcsr version {found} (this build reads {VERSION})")
            }
            StoreError::Truncated { detail } => write!(f, "truncated .pcsr file: {detail}"),
            StoreError::Misaligned { section, pos } => write!(
                f,
                "misaligned .pcsr section {section:?} at byte {pos} (sections must be 64-byte aligned)"
            ),
            StoreError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: file records {expected:#018x}, contents hash to {found:#018x}"
            ),
            StoreError::Inconsistent { detail } => {
                write!(f, "inconsistent .pcsr header: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What a write produced — the CLI's `graph build` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSummary {
    /// Node count.
    pub n: usize,
    /// Undirected edge count.
    pub edge_count: usize,
    /// Dense hub rows persisted.
    pub dense_rows: usize,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

/// Incremental FNV-1a over everything written after the header.
struct HashingWriter<W: Write> {
    inner: W,
    hash: u64,
    written: u64,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter {
            inner,
            hash: FNV_OFFSET,
            written: 0,
        }
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.written += bytes.len() as u64;
        self.inner.write_all(bytes)
    }

    /// Zero-pads so the next write lands on an `ALIGN` boundary of the
    /// full file (header included).
    fn pad_to_alignment(&mut self) -> io::Result<u64> {
        let pos = HEADER_LEN + self.written;
        let aligned = pos.next_multiple_of(ALIGN);
        const ZEROS: [u8; ALIGN as usize] = [0; ALIGN as usize];
        self.put(&ZEROS[..(aligned - pos) as usize])?;
        Ok(aligned)
    }
}

/// FNV-1a of a byte stream, chunked (the verify path).
fn fnv1a_of_reader<R: Read>(mut r: R, mut remaining: u64) -> io::Result<u64> {
    let mut hash = FNV_OFFSET;
    let mut buf = vec![0u8; 1 << 20];
    while remaining > 0 {
        let want = buf.len().min(remaining as usize);
        let got = r.read(&mut buf[..want])?;
        if got == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "file shrank during verify",
            ));
        }
        for &b in &buf[..got] {
            hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        remaining -= got as u64;
    }
    Ok(hash)
}

/// Writer for the `.pcsr` format.
///
/// Two entry points: [`GraphStore::write`] persists an already-built
/// [`Graph`]; [`GraphStore::write_rows`] streams a graph straight from a
/// per-node adjacency function without building it in memory first.
#[derive(Debug)]
pub struct GraphStore;

impl GraphStore {
    /// Writes `graph`'s adjacency to `path` as a `.pcsr` file.
    ///
    /// Labels are not persisted (see the module docs). The dense
    /// hub-row sections are recomputed from the adjacency with the same
    /// degree rule the in-memory builder uses, so a write→open round
    /// trip reproduces the owned representation bit for bit.
    pub fn write(graph: &Graph, path: impl AsRef<Path>) -> Result<StoreSummary, StoreError> {
        Self::write_rows(path, graph.len(), |p, out| {
            out.extend_from_slice(graph.neighbors(NodeId::from_index(p)));
        })
    }

    /// Streams a graph to `path` from a row function, in two passes.
    ///
    /// `row(p, out)` must append the neighbors of node `p` to `out`
    /// (cleared by the caller before each invocation), **sorted
    /// ascending, without duplicates or self-loops, and symmetrically**
    /// (`q ∈ row(p)` ⇔ `p ∈ row(q)`). The function is called twice per
    /// node — once to count degrees (which become the offsets section
    /// and the dense-row plan) and once to emit the adjacency — so it
    /// should be a pure function of `p`.
    ///
    /// Peak memory is the write buffer plus the dense hub rows (empty on
    /// bounded-degree topologies beyond trivial sizes): no O(E) edge
    /// list, no in-memory CSR. A 10⁸-node torus streams in a few GB of
    /// file through a ~1 MB buffer.
    pub fn write_rows<F>(
        path: impl AsRef<Path>,
        n: usize,
        mut row: F,
    ) -> Result<StoreSummary, StoreError>
    where
        F: FnMut(usize, &mut Vec<NodeId>),
    {
        if n > u32::MAX as usize {
            return Err(StoreError::Inconsistent {
                detail: format!("n = {n} exceeds the u32 node-id space"),
            });
        }
        let mask_words = words_for(n);
        let file = File::create(path.as_ref())?;
        let mut buffered = BufWriter::with_capacity(1 << 20, file);
        // Placeholder header, not covered by the checksum; rewritten with
        // real values once the section geometry is known.
        buffered.write_all(&[0u8; HEADER_LEN as usize])?;
        let mut w = HashingWriter::new(buffered);

        // Pass 1: degrees → running-prefix offsets, streamed out
        // directly; note which nodes qualify for a dense hub row.
        let mut buf: Vec<NodeId> = Vec::new();
        let mut total: u64 = 0;
        let mut dense_plan: Vec<u32> = Vec::new();
        let offsets_pos = HEADER_LEN;
        w.put(&0u32.to_le_bytes())?;
        for p in 0..n {
            buf.clear();
            row(p, &mut buf);
            validate_row(p, n, &buf)?;
            total += buf.len() as u64;
            if total > u64::from(u32::MAX) {
                return Err(StoreError::Inconsistent {
                    detail: format!("adjacency exceeds u32 CSR offsets at node {p}"),
                });
            }
            w.put(&(total as u32).to_le_bytes())?;
            if mask_words > 0 && buf.len() >= mask_words {
                dense_plan.push(p as u32);
            }
        }
        if !total.is_multiple_of(2) {
            return Err(StoreError::Inconsistent {
                detail: format!("asymmetric adjacency: {total} directed entries (must be even)"),
            });
        }
        let edge_count = (total / 2) as usize;

        // Pass 2: adjacency rows, plus the dense hub rows accumulated on
        // the side (bounded by 16·E bytes, same as the in-memory cache).
        let csr_pos = w.pad_to_alignment()?;
        let mut dense_words: Vec<u64> = Vec::with_capacity(dense_plan.len() * mask_words);
        let mut dense_cursor = 0usize;
        for p in 0..n {
            buf.clear();
            row(p, &mut buf);
            for q in &buf {
                w.put(&q.0.to_le_bytes())?;
            }
            if dense_cursor < dense_plan.len() && dense_plan[dense_cursor] == p as u32 {
                dense_cursor += 1;
                let base = dense_words.len();
                dense_words.resize(base + mask_words, 0);
                for q in &buf {
                    dense_words[base + q.index() / 64] |= 1 << (q.index() % 64);
                }
            }
        }

        let dense_ids_pos = w.pad_to_alignment()?;
        for id in &dense_plan {
            w.put(&id.to_le_bytes())?;
        }
        let dense_words_pos = w.pad_to_alignment()?;
        for word in &dense_words {
            w.put(&word.to_le_bytes())?;
        }

        // Trailing checksum, then rewind and fill in the real header.
        let checksum = w.hash;
        let file_bytes = HEADER_LEN + w.written + 8;
        w.inner.write_all(&checksum.to_le_bytes())?;
        let mut header = [0u8; HEADER_LEN as usize];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        let flags: u32 = if dense_plan.is_empty() { 0 } else { FLAG_DENSE };
        header[12..16].copy_from_slice(&flags.to_le_bytes());
        header[16..24].copy_from_slice(&(n as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(edge_count as u64).to_le_bytes());
        header[32..40].copy_from_slice(&(mask_words as u64).to_le_bytes());
        for (at, value) in [
            (40, offsets_pos),
            (48, n as u64 + 1),
            (56, csr_pos),
            (64, total),
            (72, dense_ids_pos),
            (80, dense_plan.len() as u64),
            (88, dense_words_pos),
            (96, dense_words.len() as u64),
        ] {
            header[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        let mut file = w
            .inner
            .into_inner()
            .map_err(|e| io::Error::from(e.into_error().kind()))?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.sync_all()?;

        Ok(StoreSummary {
            n,
            edge_count,
            dense_rows: dense_plan.len(),
            file_bytes,
        })
    }
}

/// Row contract enforcement for [`GraphStore::write_rows`].
fn validate_row(p: usize, n: usize, row: &[NodeId]) -> Result<(), StoreError> {
    let mut prev: Option<NodeId> = None;
    for &q in row {
        if q.index() >= n {
            return Err(StoreError::Inconsistent {
                detail: format!("row of node {p} names {q}, out of range for n = {n}"),
            });
        }
        if q.index() == p {
            return Err(StoreError::Inconsistent {
                detail: format!("row of node {p} contains a self-loop"),
            });
        }
        if prev.is_some_and(|prev| prev >= q) {
            return Err(StoreError::Inconsistent {
                detail: format!("row of node {p} is not strictly ascending at {q}"),
            });
        }
        prev = Some(q);
    }
    Ok(())
}

/// One validated section of a mapped file: byte position + element count.
#[derive(Debug, Clone, Copy)]
struct Section {
    pos: u64,
    len: u64,
}

impl Section {
    fn byte_len(self, elem: u64) -> u64 {
        self.len * elem
    }
}

/// A `.pcsr` file opened by `mmap`: the zero-copy counterpart of the
/// owned CSR arrays.
///
/// [`open`](MappedGraph::open) validates the header and the section
/// geometry (magic, version, bounds, alignment, offset-array endpoints)
/// in O(1) — pages are only faulted in as kernels touch them, so opening
/// a multi-gigabyte topology costs microseconds. The full content
/// checksum is verified on demand by [`verify`](MappedGraph::verify).
///
/// Usually consumed through [`Graph::open_pcsr`], which wraps the
/// mapping in the ordinary [`Graph`] API (every kernel — borders, BFS,
/// components, ranking — runs unchanged and bit-identically on mapped
/// storage).
#[derive(Debug)]
pub struct MappedGraph {
    map: Mmap,
    n: usize,
    edge_count: usize,
    mask_words: usize,
    offsets: Section,
    csr: Section,
    dense_ids: Section,
    file_bytes: u64,
    checksum: u64,
}

impl MappedGraph {
    /// Opens and validates `path`.
    ///
    /// All structural validation is O(1); see the type docs. Every
    /// malformed input returns a diagnostic [`StoreError`] — this
    /// function does not panic on untrusted bytes.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let file = File::open(path.as_ref())?;
        let file_bytes = file.metadata()?.len();
        if file_bytes < 8 {
            return Err(StoreError::Truncated {
                detail: format!("{file_bytes} bytes is too short even for the magic"),
            });
        }
        let map = Mmap::of_file(&file, file_bytes as usize)?;
        let bytes = map.bytes();
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&bytes[0..8]);
        if magic != MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
        if file_bytes < HEADER_LEN + 8 {
            return Err(StoreError::Truncated {
                detail: format!("{file_bytes} bytes cannot hold the {HEADER_LEN}-byte header and trailing checksum"),
            });
        }
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let version = u32_at(8);
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let flags = u32_at(12);
        let n = u64_at(16);
        let edge_count = u64_at(24);
        let mask_words = u64_at(32);
        let offsets = Section {
            pos: u64_at(40),
            len: u64_at(48),
        };
        let csr = Section {
            pos: u64_at(56),
            len: u64_at(64),
        };
        let dense_ids = Section {
            pos: u64_at(72),
            len: u64_at(80),
        };
        let dense_words = Section {
            pos: u64_at(88),
            len: u64_at(96),
        };

        if n > u64::from(u32::MAX) {
            return Err(StoreError::Inconsistent {
                detail: format!("n = {n} exceeds the u32 node-id space"),
            });
        }
        if mask_words != words_for(n as usize) as u64 {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "mask_words = {mask_words}, expected ⌈n/64⌉ = {}",
                    words_for(n as usize)
                ),
            });
        }
        if offsets.len != n + 1 {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "offsets section holds {} entries, expected n + 1 = {}",
                    offsets.len,
                    n + 1
                ),
            });
        }
        let Some(csr_entries) = edge_count.checked_mul(2) else {
            return Err(StoreError::Inconsistent {
                detail: format!("edge_count = {edge_count}: 2·E overflows u64"),
            });
        };
        if csr.len != csr_entries {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "csr section holds {} entries, expected 2·E = {csr_entries}",
                    csr.len
                ),
            });
        }
        let Some(dense_entries) = dense_ids.len.checked_mul(mask_words) else {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "dense_ids.len = {} × mask_words = {mask_words} overflows u64",
                    dense_ids.len
                ),
            });
        };
        if dense_words.len != dense_entries {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "dense sections disagree: {} ids × {mask_words} words ≠ {} words",
                    dense_ids.len, dense_words.len
                ),
            });
        }
        if (flags & FLAG_DENSE != 0) != (dense_ids.len > 0) {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "flags = {flags:#x} disagree with {} dense rows",
                    dense_ids.len
                ),
            });
        }
        let payload_end = file_bytes - 8;
        for (name, section, elem) in [
            ("offsets", offsets, 4u64),
            ("csr", csr, 4),
            ("dense_ids", dense_ids, 4),
            ("dense_words", dense_words, 8),
        ] {
            if section.pos % ALIGN != 0 {
                return Err(StoreError::Misaligned {
                    section: name,
                    pos: section.pos,
                });
            }
            let end = section
                .len
                .checked_mul(elem)
                .and_then(|bytes| section.pos.checked_add(bytes));
            if section.pos < HEADER_LEN || end.is_none_or(|end| end > payload_end) {
                return Err(StoreError::Truncated {
                    detail: format!(
                        "section {name:?} at {} ({} × {elem} bytes) does not fit in the {payload_end}-byte payload",
                        section.pos, section.len
                    ),
                });
            }
        }
        let checksum = u64_at(payload_end as usize);

        let mapped = MappedGraph {
            map,
            n: n as usize,
            edge_count: edge_count as usize,
            mask_words: mask_words as usize,
            offsets,
            csr,
            dense_ids,
            file_bytes,
            checksum,
        };
        // Endpoint sanity: the offset array must start at 0 and end at
        // the CSR length. Touches two pages at most.
        let offs = mapped.offsets();
        if offs.first() != Some(&0)
            || u64::from(*offs.last().expect("n + 1 ≥ 1 entries")) != csr.len
        {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "offset endpoints [{:?}, {:?}] disagree with csr length {}",
                    offs.first(),
                    offs.last(),
                    csr.len
                ),
            });
        }
        Ok(mapped)
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Undirected edge count.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Words per dense mask row (`⌈n/64⌉`).
    pub fn mask_words(&self) -> usize {
        self.mask_words
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Number of dense hub rows persisted.
    pub fn dense_rows(&self) -> usize {
        self.dense_ids.len as usize
    }

    /// The recorded trailing checksum (not yet compared to the contents
    /// unless [`verify`](MappedGraph::verify) has run).
    pub fn recorded_checksum(&self) -> u64 {
        self.checksum
    }

    fn section_bytes(&self, section: Section, elem: u64) -> &[u8] {
        let start = section.pos as usize;
        let end = start + section.byte_len(elem) as usize;
        &self.map.bytes()[start..end]
    }

    /// The CSR offsets section (`n + 1` entries).
    pub(crate) fn offsets(&self) -> &[u32] {
        as_u32s(self.section_bytes(self.offsets, 4))
    }

    /// The flat CSR adjacency section (`2·E` entries).
    pub(crate) fn csr(&self) -> &[NodeId] {
        as_node_ids(self.section_bytes(self.csr, 4))
    }

    /// Recomputes the content checksum and compares it with the trailing
    /// record. O(file size) — the one validation [`open`](MappedGraph::open)
    /// deliberately skips.
    pub fn verify(&self) -> Result<(), StoreError> {
        let payload = &self.map.bytes()[HEADER_LEN as usize..(self.file_bytes - 8) as usize];
        let found = fnv1a_of_reader(payload, payload.len() as u64)?;
        if found != self.checksum {
            return Err(StoreError::ChecksumMismatch {
                expected: self.checksum,
                found,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{torus, GridDims};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("precipice-store-unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_then_open_round_trips_the_arrays() {
        let g = torus(GridDims::square(8));
        let path = tmp("roundtrip.pcsr");
        let summary = GraphStore::write(&g, &path).unwrap();
        assert_eq!(summary.n, 64);
        assert_eq!(summary.edge_count, g.edge_count());
        let m = MappedGraph::open(&path).unwrap();
        assert_eq!(m.len(), g.len());
        assert_eq!(m.edge_count(), g.edge_count());
        m.verify().unwrap();
        for p in g.nodes() {
            let (lo, hi) = (
                m.offsets()[p.index()] as usize,
                m.offsets()[p.index() + 1] as usize,
            );
            assert_eq!(&m.csr()[lo..hi], g.neighbors(p), "row of {p}");
        }
    }

    #[test]
    fn streamed_rows_match_builder_output() {
        // Dense rows exist at this size (n = 9, mask_words = 1, degree
        // 4 ≥ 1) so the hub sections are exercised too.
        let g = torus(GridDims::square(3));
        let built = tmp("built.pcsr");
        let streamed = tmp("streamed.pcsr");
        GraphStore::write(&g, &built).unwrap();
        GraphStore::write_rows(&streamed, g.len(), |p, out| {
            out.extend_from_slice(g.neighbors(NodeId::from_index(p)));
        })
        .unwrap();
        assert_eq!(
            std::fs::read(&built).unwrap(),
            std::fs::read(&streamed).unwrap(),
            "streamed and graph-backed writes must be byte-identical"
        );
        let m = MappedGraph::open(&streamed).unwrap();
        assert_eq!(m.dense_rows(), 9);
        m.verify().unwrap();
    }

    #[test]
    fn asymmetric_rows_are_rejected() {
        // Node 0 names 1 but not vice versa: odd directed total.
        let err = GraphStore::write_rows(tmp("asym.pcsr"), 2, |p, out| {
            if p == 0 {
                out.push(NodeId(1));
            }
        })
        .unwrap_err();
        assert!(matches!(err, StoreError::Inconsistent { .. }), "{err}");
    }

    #[test]
    fn unsorted_rows_are_rejected() {
        let err = GraphStore::write_rows(tmp("unsorted.pcsr"), 3, |_, out| {
            out.extend([NodeId(2), NodeId(1)]);
        })
        .unwrap_err();
        assert!(matches!(err, StoreError::Inconsistent { .. }), "{err}");
    }
}
