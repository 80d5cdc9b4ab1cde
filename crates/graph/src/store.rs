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
//! # Layout (version 2, all integers little-endian)
//!
//! ```text
//! 0    magic            8 bytes  b"PCSRGRPH"
//! 8    version          u32      2
//! 12   reserved         zeros to byte 16
//! 16   n                u64      node count
//! 24   edge_count       u64      undirected edges (CSR holds 2·E entries)
//! 32   reserved         zeros to byte 40
//! 40   offsets section  pos u64, len u64   (u32 entries, len = n + 1)
//! 56   csr section      pos u64, len u64   (u32 entries, len = 2·E)
//! 72   reserved         zeros to byte 128
//! 128  sections, each starting at a 64-byte-aligned file offset
//! end-8  checksum       u64      FNV-1a over bytes [128, end-8)
//! ```
//!
//! Section positions are 64-byte aligned so a page-aligned mapping makes
//! every section slice-castable in place. The trailing checksum covers
//! all section bytes (including alignment padding); [`MappedGraph::open`]
//! validates the header and section geometry in O(1) and leaves the O(E)
//! checksum and row walk to [`MappedGraph::verify`], keeping open latency
//! independent of file size. Node labels are not persisted — the format
//! targets the generated experiment topologies, which are unlabeled.
//! Reserved bytes are written as zeros and never read. Version 1 also
//! carried dense hub rows that no kernel read; `open` refuses it.
//!
//! # Streaming builds
//!
//! [`GraphStore::write_rows`] builds a file from a *row function* in two
//! passes (degree count, then placement), so a graph whose adjacency is
//! closed-form (torus, grid, ring, …) streams to disk through a small
//! buffer without ever materializing an O(E) edge list — the path that
//! takes the E-series to 10⁸ nodes.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::mmap::{as_node_ids, as_u32s, Mmap};
use crate::{Graph, NodeId};

/// File magic, byte 0.
pub(crate) const MAGIC: [u8; 8] = *b"PCSRGRPH";
/// Current format version.
pub(crate) const VERSION: u32 = 2;
/// Fixed header size; the first section starts here.
pub(crate) const HEADER_LEN: u64 = 128;
/// Section alignment, in bytes.
const ALIGN: u64 = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a of `bytes`, continuing from `hash` ([`FNV_OFFSET`] to start).
///
/// `#[inline]` because the writer's generic `put` is instantiated in the
/// caller's crate and calls it once per 4-byte value.
#[inline]
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

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
    /// Header fields contradict each other or the section contents, or
    /// a row breaks the adjacency contract.
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
            StoreError::UnsupportedVersion { found } => write!(
                f,
                "unsupported .pcsr version {found} (this build reads {VERSION}; \
                 rebuild the file with `precipice graph build`)"
            ),
            StoreError::Truncated { detail } => write!(f, "truncated .pcsr file: {detail}"),
            StoreError::Misaligned { section, pos } => write!(
                f,
                "misaligned .pcsr section {section:?} at byte {pos} (sections must be 64-byte aligned)"
            ),
            StoreError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: file records {expected:#018x}, contents hash to {found:#018x}"
            ),
            StoreError::Inconsistent { detail } => write!(f, "inconsistent .pcsr file: {detail}"),
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
    /// Total file size in bytes.
    pub file_bytes: u64,
}

/// The identity of a file's bytes as the filesystem reports it: device,
/// inode, length and modification time.
///
/// Two stats of one path give the same `FileId` while the path names
/// the same unmodified file. A rename over it (as [`GraphStore`]'s
/// writer does), a truncation or a rewrite in place changes the inode,
/// the length or the mtime, so a `FileId` stands for what a mapping of
/// the file reads. A change that restores all four fields (an in-place
/// edit followed by `touch -d` to the old mtime) is not seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId {
    dev: u64,
    ino: u64,
    len: u64,
    mtime_s: i64,
    mtime_ns: i64,
}

impl FileId {
    /// The identity of the file `meta` describes.
    pub(crate) fn of(meta: &fs::Metadata) -> Self {
        FileId {
            dev: meta.dev(),
            ino: meta.ino(),
            len: meta.len(),
            mtime_s: meta.mtime(),
            mtime_ns: meta.mtime_nsec(),
        }
    }

    /// The identity of the file at `path`, following symlinks.
    pub fn of_path(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::of(&fs::metadata(path)?))
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dev {} ino {} len {} mtime {}.{:09}",
            self.dev, self.ino, self.len, self.mtime_s, self.mtime_ns
        )
    }
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
        self.hash = fnv1a(self.hash, bytes);
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
    /// Labels are not persisted (see the module docs), so a write→open
    /// round trip reproduces the owned CSR arrays bit for bit.
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
    /// node — once to count degrees (which become the offsets section)
    /// and once to emit the adjacency — so it should be a pure function
    /// of `p`.
    ///
    /// Peak memory is the write buffer: no O(E) edge list, no in-memory
    /// CSR. A 10⁸-node torus streams in a few GB of file through a ~1 MB
    /// buffer.
    ///
    /// The file is written under a sibling name unique to this write
    /// (`<name>.<pid>-<k>.tmp`), synced, and renamed over `path`, so a
    /// process that has `path` mapped keeps reading the old file intact;
    /// on error the temporary file is removed and `path` is untouched.
    pub fn write_rows<F>(
        path: impl AsRef<Path>,
        n: usize,
        row: F,
    ) -> Result<StoreSummary, StoreError>
    where
        F: FnMut(usize, &mut Vec<NodeId>),
    {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let path = path.as_ref();
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        let k = WRITES.fetch_add(1, Ordering::Relaxed);
        name.push(format!(".{}-{k}.tmp", std::process::id()));
        let tmp = path.with_file_name(name);
        let written = Self::write_file(&tmp, n, row).and_then(|summary| {
            fs::rename(&tmp, path)?;
            Ok(summary)
        });
        if written.is_err() {
            // Best effort: the write's own error is the one to report.
            let _ = fs::remove_file(&tmp);
        }
        written
    }

    /// The body of [`write_rows`](Self::write_rows): writes and syncs `path`.
    fn write_file<F>(path: &Path, n: usize, mut row: F) -> Result<StoreSummary, StoreError>
    where
        F: FnMut(usize, &mut Vec<NodeId>),
    {
        if n > u32::MAX as usize {
            return Err(StoreError::Inconsistent {
                detail: format!("n = {n} exceeds the u32 node-id space"),
            });
        }
        let file = File::create(path)?;
        let mut buffered = BufWriter::with_capacity(1 << 20, file);
        // Placeholder header, not covered by the checksum; rewritten with
        // real values once the section geometry is known.
        buffered.write_all(&[0u8; HEADER_LEN as usize])?;
        let mut w = HashingWriter::new(buffered);

        // Pass 1: degrees → running-prefix offsets, streamed out directly.
        let mut buf: Vec<NodeId> = Vec::new();
        let mut total: u64 = 0;
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
        }
        if !total.is_multiple_of(2) {
            return Err(StoreError::Inconsistent {
                detail: format!("asymmetric adjacency: {total} directed entries (must be even)"),
            });
        }
        let edge_count = (total / 2) as usize;

        // Pass 2: adjacency rows.
        let csr_pos = w.pad_to_alignment()?;
        for p in 0..n {
            buf.clear();
            row(p, &mut buf);
            for q in &buf {
                w.put(&q.0.to_le_bytes())?;
            }
        }

        // Trailing checksum, then rewind and fill in the real header.
        let checksum = w.hash;
        let file_bytes = HEADER_LEN + w.written + 8;
        w.inner.write_all(&checksum.to_le_bytes())?;
        let mut header = [0u8; HEADER_LEN as usize];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        for (at, value) in [
            (16, n as u64),
            (24, edge_count as u64),
            (40, offsets_pos),
            (48, n as u64 + 1),
            (56, csr_pos),
            (64, total),
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
            file_bytes,
        })
    }
}

/// The row contract of [`GraphStore::write_rows`], which
/// [`MappedGraph::verify`] enforces on a file's rows too.
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

/// One validated `u32` section of a mapped file: byte position + entry
/// count.
#[derive(Debug, Clone, Copy)]
struct Section {
    pos: u64,
    len: u64,
}

impl Section {
    /// One past the section's last byte, `None` if that overflows `u64`.
    fn end(self) -> Option<u64> {
        self.len.checked_mul(4)?.checked_add(self.pos)
    }
}

/// A `.pcsr` file opened by `mmap`: the zero-copy counterpart of the
/// owned CSR arrays.
///
/// [`open`](MappedGraph::open) validates the header and the section
/// geometry (magic, version, bounds, alignment, offset-array endpoints)
/// in O(1) — pages are only faulted in as kernels touch them, so opening
/// a multi-gigabyte topology costs microseconds. The checksum and every
/// row are verified on demand by [`verify`](MappedGraph::verify).
///
/// Usually consumed through [`Graph::open_pcsr`], which wraps the
/// mapping in the ordinary [`Graph`] API (every kernel — borders, BFS,
/// components, ranking — runs unchanged and bit-identically on mapped
/// storage).
///
/// The mapping reads the file's pages as they are on disk. Rewriting the
/// path with [`GraphStore`] is safe: the writer renames a new file over
/// it, and this mapping keeps the old one. A program that truncates the
/// mapped file *in place* (say `truncate -s 0`, or a writer without the
/// rename) makes the next read past the new end a `SIGBUS`, which no
/// check at open can prevent.
#[derive(Debug)]
pub struct MappedGraph {
    map: Mmap,
    id: FileId,
    n: usize,
    edge_count: usize,
    offsets: Section,
    csr: Section,
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
        let meta = file.metadata()?;
        let (id, file_bytes) = (FileId::of(&meta), meta.len());
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
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let n = u64_at(16);
        let edge_count = u64_at(24);
        let offsets = Section {
            pos: u64_at(40),
            len: u64_at(48),
        };
        let csr = Section {
            pos: u64_at(56),
            len: u64_at(64),
        };

        if n > u64::from(u32::MAX) {
            return Err(StoreError::Inconsistent {
                detail: format!("n = {n} exceeds the u32 node-id space"),
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
        let payload_end = file_bytes - 8;
        for (name, section) in [("offsets", offsets), ("csr", csr)] {
            if section.pos % ALIGN != 0 {
                return Err(StoreError::Misaligned {
                    section: name,
                    pos: section.pos,
                });
            }
            if section.pos < HEADER_LEN || section.end().is_none_or(|end| end > payload_end) {
                return Err(StoreError::Truncated {
                    detail: format!(
                        "section {name:?} at {} ({} × 4 bytes) does not fit in the {payload_end}-byte payload",
                        section.pos, section.len
                    ),
                });
            }
        }
        let checksum = u64_at(payload_end as usize);

        let mapped = MappedGraph {
            map,
            id,
            n: n as usize,
            edge_count: edge_count as usize,
            offsets,
            csr,
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

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// The recorded trailing checksum (not yet compared to the contents
    /// unless [`verify`](MappedGraph::verify) has run).
    pub fn recorded_checksum(&self) -> u64 {
        self.checksum
    }

    /// The identity of the file this maps, taken from the descriptor it
    /// was mapped through, so it describes these bytes even if the path
    /// has since been renamed over.
    pub fn file_id(&self) -> FileId {
        self.id
    }

    /// Gives the mapping's resident pages back to the kernel; the next
    /// read refaults them from the page cache, unchanged. For a mapping
    /// that stays open while nothing reads it.
    pub(crate) fn release_pages(&self) -> io::Result<()> {
        self.map.release_pages()
    }

    fn section_bytes(&self, section: Section) -> &[u8] {
        let start = section.pos as usize;
        &self.map.bytes()[start..start + section.len as usize * 4]
    }

    /// The CSR offsets section (`n + 1` entries).
    pub(crate) fn offsets(&self) -> &[u32] {
        as_u32s(self.section_bytes(self.offsets))
    }

    /// The flat CSR adjacency section (`2·E` entries).
    pub(crate) fn csr(&self) -> &[NodeId] {
        as_node_ids(self.section_bytes(self.csr))
    }

    /// Checks everything [`open`](MappedGraph::open) skips, in O(file
    /// size): the content checksum against the trailing record, then
    /// every row — `offsets[p] ≤ offsets[p + 1] ≤ csr.len()`, the row
    /// contract of [`GraphStore::write_rows`] (ids below n, strictly
    /// ascending, no self-loop), and symmetry (`q ∈ row(p)` ⇒
    /// `p ∈ row(q)`). A file that passes reads as a well-formed
    /// undirected graph; the first bad row is named otherwise.
    pub fn verify(&self) -> Result<(), StoreError> {
        let payload = &self.map.bytes()[HEADER_LEN as usize..(self.file_bytes - 8) as usize];
        let found = fnv1a(FNV_OFFSET, payload);
        if found != self.checksum {
            return Err(StoreError::ChecksumMismatch {
                expected: self.checksum,
                found,
            });
        }
        let (offsets, csr) = (self.offsets(), self.csr());
        let row = |p: usize| csr.get(*offsets.get(p)? as usize..*offsets.get(p + 1)? as usize);
        // Each row on its own first, so a bad id is named in its own row
        // rather than as the asymmetry it also causes.
        for p in 0..self.n {
            let Some(neighbors) = row(p) else {
                return Err(StoreError::Inconsistent {
                    detail: format!(
                        "row of node {p} spans offsets {}..{}, not a range of the {}-entry csr",
                        offsets[p],
                        offsets[p + 1],
                        csr.len()
                    ),
                });
            };
            validate_row(p, self.n, neighbors)?;
        }
        for p in 0..self.n {
            let me = NodeId::from_index(p);
            for &q in row(p).unwrap_or_default() {
                if row(q.index())
                    .unwrap_or_default()
                    .binary_search(&me)
                    .is_err()
                {
                    return Err(StoreError::Inconsistent {
                        detail: format!("row of node {p} names {q}, whose row does not name {me}"),
                    });
                }
            }
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
        MappedGraph::open(&streamed).unwrap().verify().unwrap();
    }

    #[test]
    fn a_corrupt_interior_offset_reads_as_no_row_when_checked() {
        // Offset 513 zeroed: node 512's row becomes an inverted range,
        // which `open` (endpoints only) lets through.
        let g = torus(GridDims::square(32));
        let path = tmp("corrupt-row.pcsr");
        GraphStore::write(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let section = u64::from_le_bytes(bytes[40..48].try_into().unwrap()) as usize;
        bytes[section + 4 * 513..section + 4 * 514].fill(0);
        std::fs::write(&path, &bytes).unwrap();
        let mapped = Graph::open_pcsr(&path).unwrap();
        assert_eq!(mapped.checked_neighbors(NodeId(512)), None);
        assert_eq!(
            mapped.checked_neighbors(NodeId(511)),
            Some(g.neighbors(NodeId(511)))
        );
        for p in g.nodes() {
            assert_eq!(g.checked_neighbors(p), Some(g.neighbors(p)));
        }
        assert_eq!(g.checked_neighbors(NodeId(1024)), None);
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
