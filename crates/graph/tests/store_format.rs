//! `.pcsr` format robustness and owned-vs-mapped differential tests.
//!
//! Two obligations, both load-bearing for the zero-copy topology work:
//!
//! 1. **Robustness** — a `.pcsr` file is untrusted input the moment it
//!    can be passed on a command line. Every malformed shape (truncation,
//!    wrong magic, future version, flipped payload bytes, misaligned
//!    sections) must surface as a diagnostic [`StoreError`], never a
//!    panic or a silently wrong graph.
//! 2. **Equivalence** — every kernel must be *bit-identical* on mapped
//!    and owned storage. The differential tests drive the full query API
//!    over both and compare exact outputs; the figure-level golden-hash
//!    differentials live in the bench crate's `trace_golden` suite.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use precipice_graph::{
    barabasi_albert, connected_components, grid, path, ring, star, stream_torus, torus,
    watts_strogatz, Graph, GraphStore, GridDims, MappedGraph, NodeId, Region, StoreError,
    TopologySpec,
};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("precipice-store-format");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Writes `g`, reopens it mapped, and checks the whole query surface.
fn assert_mapped_equivalent(g: &Graph, name: &str) {
    let file = tmp(name);
    let summary = g.write_pcsr(&file).unwrap();
    assert_eq!(summary.n, g.len());
    assert_eq!(summary.edge_count, g.edge_count());

    let m = Graph::open_pcsr(&file).unwrap();
    assert!(m.is_mapped() && !g.is_mapped());
    assert_eq!(&m, g, "mapped round trip must compare equal");
    assert_eq!(m.len(), g.len());
    assert_eq!(m.edge_count(), g.edge_count());
    assert_eq!(m.mask_words(), g.mask_words());

    for p in g.nodes() {
        assert_eq!(m.neighbors(p), g.neighbors(p), "neighbors of {p}");
        assert_eq!(m.degree(p), g.degree(p));
        assert_eq!(m.dense_row(p), g.dense_row(p), "dense row of {p}");
    }

    // Border and component kernels, the protocol's hot path.
    let crashed: BTreeSet<NodeId> = g
        .nodes()
        .filter(|p| p.index() % 7 == 0 || p.index() % 5 == 3)
        .collect();
    assert_eq!(
        m.border_of(crashed.iter().copied()),
        g.border_of(crashed.iter().copied())
    );
    assert_eq!(
        connected_components(&m, &crashed),
        connected_components(g, &crashed)
    );
    let region: Region = crashed.iter().copied().take(4).collect();
    assert_eq!(
        m.border_of_region_cached(&region),
        g.border_of_region_cached(&region)
    );
    assert_eq!(m.is_connected(), g.is_connected());
}

#[test]
fn mapped_kernels_are_bit_identical_across_topologies() {
    // Bounded-degree (no dense rows), hubby (dense rows), and
    // degenerate shapes.
    assert_mapped_equivalent(&torus(GridDims::square(12)), "diff-torus.pcsr");
    assert_mapped_equivalent(
        &grid(GridDims {
            width: 9,
            height: 5,
        }),
        "diff-grid.pcsr",
    );
    assert_mapped_equivalent(&ring(97), "diff-ring.pcsr");
    assert_mapped_equivalent(&path(1), "diff-path1.pcsr");
    assert_mapped_equivalent(&star(130), "diff-star.pcsr");
    assert_mapped_equivalent(&barabasi_albert(200, 3, 11), "diff-ba.pcsr");
    assert_mapped_equivalent(
        &watts_strogatz(150, 6, 0.2, 7).expect("connected"),
        "diff-ws.pcsr",
    );
}

#[test]
fn streamed_files_match_materialized_writes_byte_for_byte() {
    // `TopologySpec::write_pcsr` streams the closed-form families and
    // materializes the rest; either way it must write the exact bytes
    // of build-then-write: same CSR, same dense plan, same checksum.
    for (spec, streams) in [
        ("torus:7", true),
        ("grid:5x6", true),
        ("ring:33", true),
        ("path:17", true),
        ("star:130", false),
        ("tree:50", false),
    ] {
        let topology: TopologySpec = spec.parse().unwrap();
        let name = spec.replace(':', "-");
        let built = tmp(&format!("bytes-{name}-built.pcsr"));
        let written = tmp(&format!("bytes-{name}-written.pcsr"));
        topology.build(7).unwrap().write_pcsr(&built).unwrap();
        let (_, streamed) = topology.write_pcsr(&written, 7).unwrap();
        assert_eq!(streamed, streams, "{spec}");
        assert_eq!(
            fs::read(&built).unwrap(),
            fs::read(&written).unwrap(),
            "{spec}: written file differs from materialized write"
        );
    }
    // A non-square torus has no spec but streams all the same.
    let (built, streamed) = (tmp("bytes-torus7x4-built.pcsr"), tmp("bytes-torus7x4.pcsr"));
    let dims = GridDims {
        width: 7,
        height: 4,
    };
    torus(dims).write_pcsr(&built).unwrap();
    stream_torus(dims, &streamed).unwrap();
    assert_eq!(fs::read(&built).unwrap(), fs::read(&streamed).unwrap());
}

#[test]
fn golden_header_layout_is_stable() {
    // Pin the v1 wire format: if any of these bytes move, old files stop
    // opening and this test must be updated *deliberately* alongside a
    // version bump.
    let file = tmp("golden.pcsr");
    ring(5).write_pcsr(&file).unwrap();
    let bytes = fs::read(&file).unwrap();
    assert_eq!(&bytes[0..8], b"PCSRGRPH");
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
    // n = 5, E = 5, mask_words = 1.
    assert_eq!(u64::from_le_bytes(bytes[16..24].try_into().unwrap()), 5);
    assert_eq!(u64::from_le_bytes(bytes[24..32].try_into().unwrap()), 5);
    assert_eq!(u64::from_le_bytes(bytes[32..40].try_into().unwrap()), 1);
    // Offsets section starts right after the 128-byte header and holds
    // n + 1 = 6 entries; csr section is 64-byte aligned after it.
    assert_eq!(u64::from_le_bytes(bytes[40..48].try_into().unwrap()), 128);
    assert_eq!(u64::from_le_bytes(bytes[48..56].try_into().unwrap()), 6);
    assert_eq!(u64::from_le_bytes(bytes[56..64].try_into().unwrap()), 192);
    assert_eq!(u64::from_le_bytes(bytes[64..72].try_into().unwrap()), 10);
    // Every ring node has degree 2 ≥ mask_words = 1, so all 5 get dense
    // rows and the dense flag is set.
    assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 1);
    assert_eq!(u64::from_le_bytes(bytes[80..88].try_into().unwrap()), 5);
    // The offsets of a ring: 0, 2, 4, 6, 8, 10.
    let offs: Vec<u32> = bytes[128..152]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(offs, [0, 2, 4, 6, 8, 10]);
    // Reopen and verify the golden file end-to-end.
    let m = MappedGraph::open(&file).unwrap();
    m.verify().unwrap();
    assert_eq!(m.dense_rows(), 5);
}

fn write_corrupted(name: &str, corrupt: impl FnOnce(&mut Vec<u8>)) -> PathBuf {
    let file = tmp(name);
    torus(GridDims::square(6)).write_pcsr(&file).unwrap();
    let mut bytes = fs::read(&file).unwrap();
    corrupt(&mut bytes);
    fs::write(&file, &bytes).unwrap();
    file
}

#[test]
fn bad_magic_is_diagnosed() {
    let file = write_corrupted("bad-magic.pcsr", |b| b[0..8].copy_from_slice(b"NOTPCSR!"));
    match MappedGraph::open(&file) {
        Err(StoreError::BadMagic { found }) => assert_eq!(&found, b"NOTPCSR!"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_version_is_diagnosed() {
    let file = write_corrupted("future-version.pcsr", |b| {
        b[8..12].copy_from_slice(&99u32.to_le_bytes());
    });
    match Graph::open_pcsr(&file) {
        Err(StoreError::UnsupportedVersion { found: 99 }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncations_are_diagnosed_at_every_cut() {
    // Cut the file at a spread of lengths: mid-magic, mid-header,
    // mid-section, just short of the checksum. All must fail gracefully.
    let file = tmp("trunc-src.pcsr");
    torus(GridDims::square(6)).write_pcsr(&file).unwrap();
    let full = fs::read(&file).unwrap();
    for cut in [0, 3, 8, 64, 127, 128, 200, full.len() - 9, full.len() - 1] {
        let cut_file = tmp(&format!("trunc-{cut}.pcsr"));
        fs::write(&cut_file, &full[..cut]).unwrap();
        let err = MappedGraph::open(&cut_file).expect_err(&format!("cut at {cut} must fail"));
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::BadMagic { .. }
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
        // The error must render, not just exist.
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn flipped_payload_byte_fails_verify() {
    let file = write_corrupted("bitflip.pcsr", |b| {
        let mid = 128 + (b.len() - 136) / 2;
        b[mid] ^= 0x40;
    });
    // Structural open may still succeed (O(1) validation doesn't read
    // the payload) — verify() must catch it.
    match MappedGraph::open(&file) {
        Ok(m) => match m.verify() {
            Err(StoreError::ChecksumMismatch { expected, found }) => {
                assert_ne!(expected, found)
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        },
        // A flip landing in a length-bearing region can also fail
        // structurally; that's acceptable too.
        Err(e) => assert!(!e.to_string().is_empty()),
    }
}

#[test]
fn misaligned_section_is_diagnosed() {
    let file = write_corrupted("misaligned.pcsr", |b| {
        // Nudge the csr section position off the 64-byte grid.
        let pos = u64::from_le_bytes(b[56..64].try_into().unwrap());
        b[56..64].copy_from_slice(&(pos + 4).to_le_bytes());
    });
    match MappedGraph::open(&file) {
        Err(StoreError::Misaligned { section, .. }) => assert_eq!(section, "csr"),
        other => panic!("expected Misaligned, got {other:?}"),
    }
}

#[test]
fn section_overrunning_payload_is_diagnosed() {
    let file = write_corrupted("overrun.pcsr", |b| {
        // Claim 2× the csr entries without growing the file.
        let len = u64::from_le_bytes(b[64..72].try_into().unwrap());
        b[64..72].copy_from_slice(&(len * 2).to_le_bytes());
    });
    let err = MappedGraph::open(&file).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::Truncated { .. } | StoreError::Inconsistent { .. }
        ),
        "got {err:?}"
    );
}

#[test]
fn inconsistent_offset_endpoints_are_diagnosed() {
    let file = write_corrupted("bad-endpoints.pcsr", |b| {
        // First offset entry must be 0; make it 1.
        b[128..132].copy_from_slice(&1u32.to_le_bytes());
    });
    match MappedGraph::open(&file) {
        Err(StoreError::Inconsistent { .. }) => {}
        other => panic!("expected Inconsistent, got {other:?}"),
    }
}

/// `g`'s `.pcsr` bytes with the header's u64 at `at` set to `value`.
fn with_header_u64(g: &Graph, name: &str, at: usize, value: u64) -> PathBuf {
    let file = tmp(name);
    g.write_pcsr(&file).unwrap();
    let mut bytes = fs::read(&file).unwrap();
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    fs::write(&file, &bytes).unwrap();
    file
}

/// Header counts whose products overflow `u64` are refused by name, in
/// every build: a debug build once panicked on the multiplication, and
/// a release build wrapped it and reported a bogus expected length.
#[test]
fn overflowing_header_counts_are_diagnosed() {
    let cases = [
        (path(4), 24, 1 << 63, "edge_count"),
        (path(4), 24, u64::MAX, "edge_count"),
        // Three mask words per row, so 2⁶³ rows overflow.
        (torus(GridDims::square(12)), 80, 1 << 63, "dense_ids.len"),
    ];
    for (g, at, value, field) in cases {
        let file = with_header_u64(&g, &format!("overflow-{at}-{value}.pcsr"), at, value);
        match MappedGraph::open(&file) {
            Err(StoreError::Inconsistent { detail }) => {
                assert!(detail.contains(field), "{field} = {value}: {detail}");
                assert!(detail.contains("overflows"), "{field} = {value}: {detail}");
            }
            other => panic!("{field} = {value}: expected Inconsistent, got {other:?}"),
        }
    }
}

#[test]
fn open_summary_fields_match_write_summary() {
    let g = torus(GridDims::square(10));
    let file = tmp("summary.pcsr");
    let s = GraphStore::write(&g, &file).unwrap();
    let m = MappedGraph::open(&file).unwrap();
    assert_eq!(m.len(), s.n);
    assert_eq!(m.edge_count(), s.edge_count);
    assert_eq!(m.dense_rows(), s.dense_rows);
    assert_eq!(m.file_bytes(), s.file_bytes);
    assert_eq!(fs::metadata(&file).unwrap().len(), s.file_bytes);
}

#[test]
fn mapped_graph_reports_zero_adjacency_heap() {
    let g = torus(GridDims::square(32));
    let file = tmp("heap.pcsr");
    g.write_pcsr(&file).unwrap();
    let m = Graph::open_pcsr(&file).unwrap();
    assert!(g.memory_bytes() > 0);
    assert_eq!(m.memory_bytes(), 0, "mapped adjacency owns no heap");
}
